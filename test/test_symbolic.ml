(* Unit and property tests for the symbolic engine. *)

module Sym = Symbolic.Symbol
module Monomial = Symbolic.Monomial
module Mpoly = Symbolic.Mpoly
module Ratfun = Symbolic.Ratfun
module Expr = Symbolic.Expr
module Slp = Symbolic.Slp

let x = Sym.intern "x"
let y = Sym.intern "y"
let z = Sym.intern "z"
let px = Mpoly.of_symbol x
let py = Mpoly.of_symbol y
let pz = Mpoly.of_symbol z

let env_of bindings s =
  match List.assoc_opt (Sym.name s) bindings with
  | Some v -> v
  | None -> Alcotest.failf "no binding for %s" (Sym.name s)

let check_float ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

(* ------------------------------------------------------------------ *)
(* Symbols *)

let test_symbol_interning () =
  Alcotest.(check bool) "same name same symbol" true
    (Sym.equal (Sym.intern "a_sym") (Sym.intern "a_sym"));
  Alcotest.(check bool) "distinct names differ" false
    (Sym.equal (Sym.intern "a_sym") (Sym.intern "b_sym"))

(* ------------------------------------------------------------------ *)
(* Monomials *)

let test_monomial_mul_div () =
  let m1 = Monomial.of_list [ (x, 2); (y, 1) ] in
  let m2 = Monomial.of_list [ (x, 1); (z, 3) ] in
  let m = Monomial.mul m1 m2 in
  Alcotest.(check int) "x exponent" 3 (Monomial.exponent m x);
  Alcotest.(check int) "y exponent" 1 (Monomial.exponent m y);
  Alcotest.(check int) "z exponent" 3 (Monomial.exponent m z);
  (match Monomial.div m m1 with
  | Some q -> Alcotest.(check bool) "m/m1 = m2" true (Monomial.equal q m2)
  | None -> Alcotest.fail "expected divisible");
  Alcotest.(check bool) "m1 does not divide m2" false (Monomial.divides m1 m2)

let test_monomial_gcd () =
  let m1 = Monomial.of_list [ (x, 2); (y, 1) ] in
  let m2 = Monomial.of_list [ (x, 1); (y, 3); (z, 1) ] in
  let g = Monomial.gcd m1 m2 in
  Alcotest.(check bool) "gcd = x·y" true
    (Monomial.equal g (Monomial.of_list [ (x, 1); (y, 1) ]))

let test_monomial_deriv () =
  let m = Monomial.of_list [ (x, 3); (y, 1) ] in
  match Monomial.deriv m x with
  | Some (e, m') ->
    Alcotest.(check int) "exponent factor" 3 e;
    Alcotest.(check bool) "reduced monomial" true
      (Monomial.equal m' (Monomial.of_list [ (x, 2); (y, 1) ]))
  | None -> Alcotest.fail "expected Some"

(* ------------------------------------------------------------------ *)
(* Mpoly *)

let test_mpoly_arith () =
  (* (x + y)² = x² + 2xy + y² *)
  let lhs = Mpoly.pow (Mpoly.add px py) 2 in
  let rhs =
    Mpoly.of_terms
      [ (1.0, Monomial.of_list [ (x, 2) ]);
        (2.0, Monomial.of_list [ (x, 1); (y, 1) ]);
        (1.0, Monomial.of_list [ (y, 2) ]) ]
  in
  Alcotest.(check bool) "binomial square" true (Mpoly.equal lhs rhs)

let test_mpoly_cancellation () =
  let p = Mpoly.sub (Mpoly.add px py) (Mpoly.add px py) in
  Alcotest.(check bool) "x+y − (x+y) = 0" true (Mpoly.is_zero p)

let test_mpoly_eval () =
  let p = Mpoly.add (Mpoly.mul px py) (Mpoly.scale 3.0 pz) in
  let v = Mpoly.eval p (env_of [ ("x", 2.0); ("y", 5.0); ("z", -1.0) ]) in
  check_float "eval x·y + 3z" 7.0 v

let test_mpoly_deriv () =
  (* d/dx (x²y + x + y) = 2xy + 1 *)
  let p =
    Mpoly.of_terms
      [ (1.0, Monomial.of_list [ (x, 2); (y, 1) ]);
        (1.0, Monomial.of_symbol x);
        (1.0, Monomial.of_symbol y) ]
  in
  let d = Mpoly.deriv p x in
  let expected =
    Mpoly.of_terms
      [ (2.0, Monomial.of_list [ (x, 1); (y, 1) ]); (1.0, Monomial.one) ]
  in
  Alcotest.(check bool) "derivative" true (Mpoly.equal d expected)

let test_mpoly_substitute () =
  (* x²+y with x := y+1 gives y² + 3y + 1. *)
  let p = Mpoly.add (Mpoly.pow px 2) py in
  let q = Mpoly.substitute p x (Mpoly.add py Mpoly.one) in
  let expected =
    Mpoly.of_terms
      [ (1.0, Monomial.of_list [ (y, 2) ]); (3.0, Monomial.of_symbol y);
        (1.0, Monomial.one) ]
  in
  Alcotest.(check bool) "substitution" true (Mpoly.equal q expected)

let test_mpoly_coeffs_in () =
  (* p = (y+1)·x² + 3·x + z, coefficients in x. *)
  let p =
    Mpoly.add
      (Mpoly.mul (Mpoly.add py Mpoly.one) (Mpoly.pow px 2))
      (Mpoly.add (Mpoly.scale 3.0 px) pz)
  in
  let c = Mpoly.coeffs_in p x in
  Alcotest.(check int) "3 coefficients" 3 (Array.length c);
  Alcotest.(check bool) "c0 = z" true (Mpoly.equal c.(0) pz);
  Alcotest.(check bool) "c1 = 3" true (Mpoly.equal c.(1) (Mpoly.const 3.0));
  Alcotest.(check bool) "c2 = y+1" true (Mpoly.equal c.(2) (Mpoly.add py Mpoly.one))

let test_mpoly_div_exact () =
  let p = Mpoly.mul (Mpoly.add px py) (Mpoly.add px (Mpoly.const 2.0)) in
  (match Mpoly.div_exact p (Mpoly.add px py) with
  | Some q ->
    Alcotest.(check bool) "quotient" true
      (Mpoly.equal q (Mpoly.add px (Mpoly.const 2.0)))
  | None -> Alcotest.fail "expected exact division");
  Alcotest.(check bool) "inexact returns None" true
    (Option.is_none (Mpoly.div_exact (Mpoly.add p Mpoly.one) (Mpoly.add px py)))

let test_mpoly_multilinear () =
  Alcotest.(check bool) "x·y + z is multilinear" true
    (Mpoly.is_multilinear (Mpoly.add (Mpoly.mul px py) pz));
  Alcotest.(check bool) "x² is not" false (Mpoly.is_multilinear (Mpoly.pow px 2))

let mpoly_gen =
  (* Random polynomial over x, y, z with small degrees. *)
  QCheck2.Gen.(
    let term =
      let* c = float_range (-3.0) 3.0 in
      let* ex = int_range 0 2 in
      let* ey = int_range 0 2 in
      let* ez = int_range 0 2 in
      return (c, Monomial.of_list [ (x, ex); (y, ey); (z, ez) ])
    in
    let* terms = list_size (int_range 0 6) term in
    return (Mpoly.of_terms terms))

let prop_mpoly_ring =
  QCheck2.Test.make ~name:"mpoly distributivity and commutativity" ~count:200
    QCheck2.Gen.(triple mpoly_gen mpoly_gen mpoly_gen)
    (fun (a, b, c) ->
      Mpoly.equal (Mpoly.mul a b) (Mpoly.mul b a)
      && Mpoly.equal
           (Mpoly.mul (Mpoly.add a b) c)
           (Mpoly.add (Mpoly.mul a c) (Mpoly.mul b c)))

let prop_mpoly_eval_hom =
  QCheck2.Test.make ~name:"evaluation is a ring homomorphism" ~count:200
    QCheck2.Gen.(
      quad mpoly_gen mpoly_gen (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (a, b, vx, vy) ->
      let env s =
        if Sym.equal s x then vx else if Sym.equal s y then vy else 0.5
      in
      let lhs = Mpoly.eval (Mpoly.mul a b) env in
      let rhs = Mpoly.eval a env *. Mpoly.eval b env in
      Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1.0 (Float.abs rhs))

let prop_mpoly_deriv_linear =
  QCheck2.Test.make ~name:"derivative is linear and Leibniz" ~count:200
    QCheck2.Gen.(pair mpoly_gen mpoly_gen)
    (fun (a, b) ->
      Mpoly.equal
        (Mpoly.deriv (Mpoly.add a b) x)
        (Mpoly.add (Mpoly.deriv a x) (Mpoly.deriv b x))
      && Mpoly.equal
           (Mpoly.deriv (Mpoly.mul a b) x)
           (Mpoly.add
              (Mpoly.mul (Mpoly.deriv a x) b)
              (Mpoly.mul a (Mpoly.deriv b x))))

(* ------------------------------------------------------------------ *)
(* Ratfun *)

let test_ratfun_simplify () =
  (* (x·y) / (x·z) cancels the common monomial x. *)
  let r = Ratfun.make (Mpoly.mul px py) (Mpoly.mul px pz) in
  Alcotest.(check bool) "num = y (up to scale)" true
    (Ratfun.equal r (Ratfun.div (Ratfun.of_symbol y) (Ratfun.of_symbol z)))

let test_ratfun_field_ops () =
  let a = Ratfun.div (Ratfun.of_symbol x) (Ratfun.add (Ratfun.of_symbol y) Ratfun.one) in
  let b = Ratfun.of_symbol z in
  let sum = Ratfun.add a b in
  let env = env_of [ ("x", 2.0); ("y", 3.0); ("z", 0.5) ] in
  check_float "eval sum" ((2.0 /. 4.0) +. 0.5) (Ratfun.eval sum env);
  let back = Ratfun.sub sum b in
  Alcotest.(check bool) "sum − b = a" true (Ratfun.equal back a)

let test_ratfun_inv () =
  let a = Ratfun.make (Mpoly.add px py) pz in
  Alcotest.(check bool) "a · a⁻¹ = 1" true
    (Ratfun.equal (Ratfun.mul a (Ratfun.inv a)) Ratfun.one)

let test_ratfun_deriv () =
  (* d/dx (x/(x+1)) = 1/(x+1)². *)
  let a = Ratfun.div (Ratfun.of_symbol x) (Ratfun.add (Ratfun.of_symbol x) Ratfun.one) in
  let d = Ratfun.deriv a x in
  let expected = Ratfun.inv (Ratfun.mul (Ratfun.add (Ratfun.of_symbol x) Ratfun.one) (Ratfun.add (Ratfun.of_symbol x) Ratfun.one)) in
  Alcotest.(check bool) "quotient rule" true (Ratfun.equal d expected)

let test_ratfun_zero_den () =
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Ratfun.make Mpoly.one Mpoly.zero))

let prop_ratfun_field =
  let rf_gen =
    QCheck2.Gen.(
      let* n = mpoly_gen in
      let* d = mpoly_gen in
      return
        (try
           if Mpoly.is_zero d then Ratfun.of_mpoly n else Ratfun.make n d
         with Division_by_zero -> Ratfun.of_mpoly n))
  in
  QCheck2.Test.make ~name:"ratfun add/mul distributivity" ~count:100
    QCheck2.Gen.(triple rf_gen rf_gen rf_gen)
    (fun (a, b, c) ->
      Ratfun.equal ~tol:1e-6
        (Ratfun.mul (Ratfun.add a b) c)
        (Ratfun.add (Ratfun.mul a c) (Ratfun.mul b c)))

(* ------------------------------------------------------------------ *)
(* Expr + Slp *)

let test_expr_fold_identities () =
  let e = Expr.add (Expr.sym x) Expr.zero in
  Alcotest.(check bool) "x + 0 = x" true (Expr.equal e (Expr.sym x));
  let e = Expr.mul (Expr.sym x) Expr.one in
  Alcotest.(check bool) "x · 1 = x" true (Expr.equal e (Expr.sym x));
  let e = Expr.mul (Expr.sym x) Expr.zero in
  Alcotest.(check bool) "x · 0 = 0" true (Expr.equal e Expr.zero);
  let e = Expr.neg (Expr.neg (Expr.sym x)) in
  Alcotest.(check bool) "−(−x) = x" true (Expr.equal e (Expr.sym x));
  let e = Expr.inv (Expr.inv (Expr.sym x)) in
  Alcotest.(check bool) "1/(1/x) = x" true (Expr.equal e (Expr.sym x))

let test_expr_hash_consing () =
  let a = Expr.add (Expr.sym x) (Expr.sym y) in
  let b = Expr.add (Expr.sym y) (Expr.sym x) in
  Alcotest.(check bool) "commutative sharing" true (Expr.equal a b)

let test_expr_eval () =
  let e = Expr.div (Expr.add (Expr.sym x) (Expr.const 1.0)) (Expr.sym y) in
  check_float "(x+1)/y" 1.5 (Expr.eval e (env_of [ ("x", 2.0); ("y", 2.0) ]))

let test_expr_deriv () =
  (* d/dx of x²/(x+y) at (x,y) = (2,1): (2x(x+y) − x²)/(x+y)² = (12−4)/9. *)
  let e =
    Expr.div (Expr.pow_int (Expr.sym x) 2) (Expr.add (Expr.sym x) (Expr.sym y))
  in
  let d = Expr.deriv e x in
  check_float "symbolic derivative" (8.0 /. 9.0)
    (Expr.eval d (env_of [ ("x", 2.0); ("y", 1.0) ]))

let test_expr_of_ratfun () =
  let r = Ratfun.div (Ratfun.add (Ratfun.of_symbol x) Ratfun.one) (Ratfun.of_symbol y) in
  let e = Expr.of_ratfun r in
  let env = env_of [ ("x", 3.0); ("y", 2.0) ] in
  check_float "expr matches ratfun" (Ratfun.eval r env) (Expr.eval e env)

let test_slp_eval () =
  let e =
    Expr.sqrt (Expr.add (Expr.mul (Expr.sym x) (Expr.sym x)) (Expr.mul (Expr.sym y) (Expr.sym y)))
  in
  let p = Slp.compile ~inputs:[| x; y |] [| e |] in
  let out = Slp.eval p [| 3.0; 4.0 |] in
  check_float "hypotenuse" 5.0 out.(0)

let test_slp_cse () =
  (* (x+y)·(x+y) shares the sum: one Add instruction, one Mul. *)
  let s = Expr.add (Expr.sym x) (Expr.sym y) in
  let e = Expr.mul s s in
  let p = Slp.compile ~inputs:[| x; y |] [| e |] in
  Alcotest.(check int) "4 instructions (2 loads, add, mul)" 4
    (Slp.num_instructions p)

let test_slp_missing_input () =
  let e = Expr.sym z in
  match Slp.compile ~inputs:[| x |] [| e |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_slp_evaluator_reuse () =
  let e = Expr.add (Expr.sym x) (Expr.const 1.0) in
  let eval = Slp.make_evaluator (Slp.compile ~inputs:[| x |] [| e |]) in
  check_float "first call" 2.0 (eval [| 1.0 |]).(0);
  check_float "second call" 11.0 (eval [| 10.0 |]).(0)

let expr_gen =
  (* Random expression over x, y with guarded inverses. *)
  QCheck2.Gen.(
    sized_size (int_range 0 8) @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map Expr.const (float_range (-3.0) 3.0);
              oneofl [ Expr.sym x; Expr.sym y ] ]
        else
          oneof
            [ map2 Expr.add (self (n / 2)) (self (n / 2));
              map2 Expr.mul (self (n / 2)) (self (n / 2));
              map Expr.neg (self (n - 1));
              map
                (fun e -> Expr.inv (Expr.add (Expr.mul e e) (Expr.const 1.0)))
                (self (n - 1)) ]))

let prop_slp_matches_eval =
  QCheck2.Test.make ~name:"compiled SLP ≡ direct DAG evaluation" ~count:300
    QCheck2.Gen.(triple expr_gen (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (e, vx, vy) ->
      let env s = if Sym.equal s x then vx else vy in
      let direct = Expr.eval e env in
      let p = Slp.compile ~inputs:[| x; y |] [| e |] in
      let compiled = (Slp.eval p [| vx; vy |]).(0) in
      (Float.is_nan direct && Float.is_nan compiled)
      || Float.abs (direct -. compiled) <= 1e-9 *. Float.max 1.0 (Float.abs direct))

let prop_expr_deriv_numeric =
  QCheck2.Test.make ~name:"symbolic derivative matches finite difference"
    ~count:200
    QCheck2.Gen.(triple expr_gen (float_range 0.5 2.0) (float_range 0.5 2.0))
    (fun (e, vx, vy) ->
      let env vx s = if Sym.equal s x then vx else vy in
      let h = 1e-6 in
      let fd = (Expr.eval e (env (vx +. h)) -. Expr.eval e (env (vx -. h))) /. (2.0 *. h) in
      let sym_d = Expr.eval (Expr.deriv e x) (env vx) in
      Float.abs (fd -. sym_d) <= 1e-3 *. Float.max 1.0 (Float.abs sym_d))

(* ------------------------------------------------------------------ *)
(* Second tranche: ordering laws, reconstruction properties, SLP details *)

let monomial_gen =
  QCheck2.Gen.(
    let* ex = int_range 0 3 in
    let* ey = int_range 0 3 in
    let* ez = int_range 0 3 in
    return (Monomial.of_list [ (x, ex); (y, ey); (z, ez) ]))

let prop_monomial_order_total =
  QCheck2.Test.make ~name:"monomial order: antisymmetric and transitive"
    ~count:300
    QCheck2.Gen.(triple monomial_gen monomial_gen monomial_gen)
    (fun (a, b, c) ->
      let ab = Monomial.compare a b and ba = Monomial.compare b a in
      (compare (ab > 0) (ba < 0) = 0 || ab = 0)
      && (not (Monomial.compare a b <= 0 && Monomial.compare b c <= 0)
         || Monomial.compare a c <= 0))

let prop_monomial_mul_respects_order =
  (* Graded orders are compatible with multiplication. *)
  QCheck2.Test.make ~name:"monomial order compatible with multiplication"
    ~count:300
    QCheck2.Gen.(triple monomial_gen monomial_gen monomial_gen)
    (fun (a, b, c) ->
      let ab = Monomial.compare a b in
      ab = 0 || compare (Monomial.compare (Monomial.mul a c) (Monomial.mul b c) > 0) (ab > 0) = 0)

let prop_coeffs_in_reconstruct =
  QCheck2.Test.make ~name:"coeffs_in reconstructs the polynomial" ~count:200
    mpoly_gen (fun p ->
      let c = Mpoly.coeffs_in p x in
      let back = ref Mpoly.zero in
      Array.iteri
        (fun k ck ->
          back := Mpoly.add !back (Mpoly.mul ck (Mpoly.pow (Mpoly.of_symbol x) k)))
        c;
      Mpoly.equal p !back)

let prop_ratfun_substitute =
  QCheck2.Test.make ~name:"ratfun substitution commutes with evaluation"
    ~count:150
    QCheck2.Gen.(triple mpoly_gen mpoly_gen (float_range 0.5 2.0))
    (fun (n, q, vy) ->
      let r = Ratfun.make (Mpoly.add n Mpoly.one) (Mpoly.add (Mpoly.mul q q) Mpoly.one) in
      (* x := y + 1, then evaluate; versus evaluate with x = y + 1. *)
      let substituted = Ratfun.substitute r x (Mpoly.add (Mpoly.of_symbol y) Mpoly.one) in
      let env_sub s = if Sym.equal s y then vy else 0.25 in
      let env_dir s =
        if Sym.equal s x then vy +. 1.0 else if Sym.equal s y then vy else 0.25
      in
      match
        (Ratfun.eval substituted env_sub, Ratfun.eval r env_dir)
      with
      | a, b -> Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)
      | exception Division_by_zero -> QCheck2.assume_fail ())

let test_expr_symbols_and_size () =
  let e = Expr.mul (Expr.add (Expr.sym x) (Expr.sym y)) (Expr.add (Expr.sym x) (Expr.sym y)) in
  Alcotest.(check int) "two symbols" 2 (List.length (Expr.symbols e));
  (* Nodes: x, y, x+y (shared), product = 4. *)
  Alcotest.(check int) "shared DAG size" 4 (Expr.size e)

let test_slp_pp_smoke () =
  let e = Expr.div (Expr.add (Expr.sym x) (Expr.const 2.0)) (Expr.sym y) in
  let p = Slp.compile ~inputs:[| x; y |] [| e |] in
  let text = Format.asprintf "%a" Slp.pp p in
  Alcotest.(check bool) "disassembly mentions inputs" true
    (String.length text > 20)

let test_slp_multiple_outputs () =
  let e1 = Expr.add (Expr.sym x) (Expr.sym y) in
  let e2 = Expr.mul e1 e1 in
  let e3 = Expr.neg e1 in
  let p = Slp.compile ~inputs:[| x; y |] [| e1; e2; e3 |] in
  Alcotest.(check int) "three outputs" 3 (Slp.num_outputs p);
  let out = Slp.eval p [| 3.0; 4.0 |] in
  check_float "o1" 7.0 out.(0);
  check_float "o2" 49.0 out.(1);
  check_float "o3" (-7.0) out.(2);
  (* Sharing: e1 computed once. *)
  Alcotest.(check int) "5 instructions for the family" 5 (Slp.num_instructions p)

let test_slp_constants_preloaded () =
  let e = Expr.mul (Expr.const 3.0) (Expr.const 0.0) in
  (* Folded to the constant 0 at construction: no instructions at all. *)
  let p = Slp.compile ~inputs:[||] [| e |] in
  Alcotest.(check int) "no instructions" 0 (Slp.num_instructions p);
  check_float "constant output" 0.0 (Slp.eval p [||]).(0)

let prop_expr_eval_matches_mpoly =
  QCheck2.Test.make ~name:"of_mpoly preserves evaluation" ~count:200
    QCheck2.Gen.(triple mpoly_gen (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (p, vx, vy) ->
      let env s = if Sym.equal s x then vx else if Sym.equal s y then vy else 0.5 in
      let direct = Mpoly.eval p env in
      let via_expr = Expr.eval (Expr.of_mpoly p) env in
      Float.abs (direct -. via_expr) <= 1e-7 *. Float.max 1.0 (Float.abs direct))

(* ------------------------------------------------------------------ *)
(* Misc coverage: printers, conversions, small API corners *)

let test_mpoly_printer () =
  let p =
    Mpoly.of_terms
      [ (2.0, Monomial.of_list [ (x, 2) ]); (-1.0, Monomial.of_symbol y);
        (3.0, Monomial.one) ]
  in
  Alcotest.(check string) "rendering" "2*x^2 - y + 3" (Mpoly.to_string p);
  Alcotest.(check string) "zero" "0" (Mpoly.to_string Mpoly.zero)

let test_mpoly_degree_profile () =
  let p =
    Mpoly.of_terms
      [ (1.0, Monomial.of_list [ (x, 2); (y, 1) ]);
        (1.0, Monomial.of_list [ (x, 1); (z, 3) ]) ]
  in
  let profile = Mpoly.degree_profile p in
  Alcotest.(check (list (pair string int)))
    "profile"
    [ ("x", 2); ("y", 1); ("z", 3) ]
    (List.map (fun (s, e) -> (Sym.name s, e)) profile)

let test_expr_pow_negative () =
  let e = Expr.pow_int (Expr.sym x) (-2) in
  check_float "x^-2 at 4" (1.0 /. 16.0) (Expr.eval e (env_of [ ("x", 4.0) ]))

let test_ratfun_pow () =
  let r = Ratfun.div (Ratfun.of_symbol x) (Ratfun.add (Ratfun.of_symbol y) Ratfun.one) in
  let env = env_of [ ("x", 2.0); ("y", 1.0) ] in
  check_float "r^3" 1.0 (Ratfun.eval (Ratfun.pow r 3) env);
  check_float "r^-2" 1.0 (Ratfun.eval (Ratfun.pow r (-2)) env)

let test_slp_num_registers () =
  let e = Expr.add (Expr.sym x) (Expr.const 2.0) in
  let raw = Slp.compile ~optimize:false ~inputs:[| x |] [| e |] in
  (* SSA form: one register per DAG node (const, load, add). *)
  Alcotest.(check bool) "SSA registers counted" true
    (Slp.num_registers raw >= 3);
  (* The optimizer recycles the operand registers: the add may overwrite
     either of its sources, so two registers suffice. *)
  let p = Slp.compile ~inputs:[| x |] [| e |] in
  Alcotest.(check int) "compacted register file" 2 (Slp.num_registers p);
  check_float "optimized result" 7.0 (Slp.eval p [| 5.0 |]).(0)

(* ------------------------------------------------------------------ *)
(* Batched evaluation and optimizer equivalence.  Bit-identity is the
   contract, so compare raw IEEE-754 bit patterns, not tolerances. *)

let bits = Int64.bits_of_float

let prop_slp_batch_matches_scalar =
  QCheck2.Test.make ~name:"eval_batch bit-identical to make_evaluator"
    ~count:100
    QCheck2.Gen.(
      triple expr_gen (int_range 1 12)
        (list_size (int_range 1 40)
           (pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))))
    (fun (e, block, points) ->
      (* Two outputs sharing work, and small blocks so multi-block and
         remainder lanes are both exercised: blocks under four lanes skip
         the interpreter's unrolled loop, and every [len mod 4] tail
         occurs. *)
      let p = Slp.compile ~inputs:[| x; y |] [| e; Expr.mul e e |] in
      let n = List.length points in
      let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
      List.iteri
        (fun i (vx, vy) ->
          xs.(i) <- vx;
          ys.(i) <- vy)
        points;
      let batch = Slp.eval_batch ~block p [| xs; ys |] in
      let run = Slp.make_evaluator p in
      let ok = ref true in
      for i = 0 to n - 1 do
        let out = run [| xs.(i); ys.(i) |] in
        for j = 0 to Slp.num_outputs p - 1 do
          if bits out.(j) <> bits batch.(j).(i) then ok := false
        done
      done;
      !ok)

let prop_slp_optimizer_bit_identical =
  QCheck2.Test.make ~name:"optimized program bit-identical to raw SSA"
    ~count:200
    QCheck2.Gen.(
      triple expr_gen (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (e, vx, vy) ->
      let raw = Slp.compile ~optimize:false ~inputs:[| x; y |] [| e |] in
      let opt = Slp.compile ~inputs:[| x; y |] [| e |] in
      let twice = Slp.optimize opt in
      let v = [| vx; vy |] in
      let a = (Slp.eval raw v).(0)
      and b = (Slp.eval opt v).(0)
      and c = (Slp.eval twice v).(0) in
      (* Idempotent pipeline, and folding never perturbs a bit. *)
      Slp.num_instructions twice = Slp.num_instructions opt
      && bits a = bits b
      && bits b = bits c)

let test_slp_aliasing_contract () =
  (* make_evaluator documents that every call returns the *same* output
     buffer, overwritten in place: retained results must be copied. *)
  let e1 = Expr.add (Expr.sym x) (Expr.sym y) in
  let e2 = Expr.mul (Expr.sym x) (Expr.sym y) in
  let p = Slp.compile ~inputs:[| x; y |] [| e1; e2 |] in
  let run = Slp.make_evaluator p in
  let first = run [| 1.0; 2.0 |] in
  check_float "first sum" 3.0 first.(0);
  let saved = Array.copy first in
  let second = run [| 10.0; 20.0 |] in
  Alcotest.(check bool) "same physical buffer returned" true (first == second);
  check_float "first call's view overwritten in place" 30.0 first.(0);
  check_float "copy preserves the earlier sum" 3.0 saved.(0);
  check_float "copy preserves the earlier product" 2.0 saved.(1);
  (* eval_batch, by contrast, hands out fresh columns every call. *)
  let batch_run = Slp.make_batch_evaluator p in
  let cols = [| [| 1.0 |]; [| 2.0 |] |] in
  let b1 = batch_run cols in
  let b2 = batch_run cols in
  Alcotest.(check bool) "batch columns are fresh" true (b1.(0) != b2.(0));
  check_float "batch sum" 3.0 b1.(0).(0)

let test_batch_evaluator_single_owner () =
  (* The ownership contract on make_batch_evaluator: the closure's
     register files admit one call at a time.  Overlapping calls from two
     domains must raise Invalid_argument in the loser rather than
     silently interleave lane writes; and a failed call must release the
     latch so the owner can keep going. *)
  let e = Expr.add (Expr.mul (Expr.sym x) (Expr.sym y)) (Expr.sym x) in
  let p = Slp.compile ~inputs:[| x; y |] [| e |] in
  let run = Slp.make_batch_evaluator ~block:64 p in
  (* Latch released after a rejected call (wrong column count). *)
  (match run [| [| 1.0 |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong column count must be rejected");
  check_float "evaluator usable after a failed call" 3.0
    (run [| [| 1.0 |]; [| 2.0 |] |]).(0).(0);
  (* Two domains hammer the same evaluator on batches large enough that
     the calls overlap; repeat until the latch is observed firing.  Every
     successful call must still produce correct results. *)
  let n = 200_000 in
  let cols = [| Array.make n 1.5; Array.make n 2.0 |] in
  let contended = ref false in
  let attempts = ref 0 in
  while (not !contended) && !attempts < 50 do
    incr attempts;
    let gate = Atomic.make 0 in
    let racer () =
      Atomic.incr gate;
      while Atomic.get gate < 2 do Domain.cpu_relax () done;
      match run cols with
      | outs -> `Ok outs.(0).(0)
      | exception Invalid_argument _ -> `Latched
    in
    let a = Domain.spawn racer in
    let b = racer () in
    let a = Domain.join a in
    List.iter
      (function
        | `Latched -> contended := true
        | `Ok v -> check_float "winner's result correct" 4.5 v)
      [ a; b ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "concurrent call latched within %d attempts" !attempts)
    true !contended;
  (* The latch is per-evaluator, not global: after the contention the
     evaluator still works sequentially. *)
  check_float "evaluator usable after contention" 4.5 (run cols).(0).(0)

(* The batch kernel runs a lowered form of the bytecode: a [Neg] that only
   [Add]s read becomes a subtraction, preloaded constants become scalar
   operands, and a result only the next instruction reads is fused into
   it.  Scalar [Slp.eval] runs the bytecode as it is, so it is the
   reference.  The programs here are raw bytecode from [Slp.of_parts], not
   [compile]'s output: few registers recycled densely, snippets that build
   each pattern where a [Neg] has to stay, each fused form, and each
   reason a pair must not fuse. *)

let special_floats =
  [| 0.0; -0.0; infinity; neg_infinity; nan; 4.9e-324; -4.9e-324;
     2.225073858507201e-308; -1e-310; 1.0; -1.5; 3.0; 1e308; -0.5 |]

let float_gen =
  QCheck2.Gen.(
    frequency
      [ (3, oneofa special_floats); (2, float_range (-4.0) 4.0); (1, float) ])

let raw_program_gen =
  let open QCheck2.Gen in
  let* nregs = int_range 2 6 in
  let reg = int_bound (nregs - 1) and slot = int_bound 1 in
  (* Two more registers that no snippet writes: every read of them is a
     scalar constant, so the special values reach the fused forms and
     their negated constants. *)
  let k = oneofl [ nregs; nregs + 1 ] in
  let* init = array_size (return nregs) float_gen in
  let* consts = array_size (return 2) (oneofa special_floats) in
  let init = Array.append init consts in
  let r2 f = map2 f reg reg and r3 f = map3 f reg reg reg in
  let r4 f = map2 (fun (a, b) (c, d) -> f a b c d) (pair reg reg) (pair reg reg) in
  (* [f t a k b d]: a product [t = a * k], another operand [b] and a
     destination [d]. *)
  let mk f = map2 (fun (t, a, c) (b, d) -> f t a c b d) (triple reg reg k) (pair reg reg) in
  let snippet =
    frequency
      [
        (3, map2 (fun r s -> [ Slp.Load_input (r, s) ]) reg slot);
        (2, r3 (fun d a b -> [ Slp.Add (d, a, b) ]));
        (2, r3 (fun d a b -> [ Slp.Mul (d, a, b) ]));
        (1, r2 (fun d a -> [ Slp.Inv (d, a) ]));
        (1, r2 (fun d a -> [ Slp.Sqrt (d, a) ]));
        (1, r2 (fun d a -> [ Slp.Exp (d, a) ]));
        (* A Neg left for an output, a later reader or a rewrite. *)
        (2, r2 (fun t s -> [ Slp.Neg (t, s) ]));
        (* In place, then read by an Add from either side. *)
        (2, r3 (fun t d a -> [ Slp.Neg (t, t); Slp.Add (d, a, t) ]));
        (1, r3 (fun t d a -> [ Slp.Neg (t, t); Slp.Add (d, t, a) ]));
        (* The source is rewritten before the reading Add. *)
        ( 2,
          map2
            (fun (t, s, d, a) k -> [ Slp.Neg (t, s); Slp.Load_input (s, k); Slp.Add (d, a, t) ])
            (quad reg reg reg reg) slot );
        (* (-a) + (-b) and t + t. *)
        (2, r4 (fun t u a b -> [ Slp.Neg (t, a); Slp.Neg (u, b); Slp.Add (a, t, u) ]));
        (1, r3 (fun t s d -> [ Slp.Neg (t, s); Slp.Add (d, t, t) ]));
        (* Read by something other than an Add. *)
        (1, r3 (fun t d a -> [ Slp.Neg (t, t); Slp.Mul (d, t, a) ]));
        (1, r2 (fun t d -> [ Slp.Neg (t, t); Slp.Inv (d, t) ]));
        (* A register read as a constant, then recycled. *)
        ( 1,
          map2
            (fun (d, a, c, e) k -> [ Slp.Add (d, a, c); Slp.Load_input (c, k); Slp.Add (e, c, d) ])
            (quad reg reg reg reg) slot );
        (* Fused: a*k + b from either side, a*k - b, b - a*k, (-(a*k)) - b
           and (-b) - a*k. *)
        (2, mk (fun t a c b d -> Slp.[ Mul (t, a, c); Add (d, t, b) ]));
        (1, mk (fun t a c b d -> Slp.[ Mul (t, c, a); Add (d, b, t) ]));
        (1, mk (fun t a c b d -> Slp.[ Mul (t, a, c); Neg (b, b); Add (d, t, b) ]));
        (1, mk (fun t a c b d -> Slp.[ Mul (t, a, c); Neg (t, t); Add (d, b, t) ]));
        (1, mk (fun t a c b d -> Slp.[ Mul (t, a, c); Neg (t, t); Neg (b, b); Add (d, t, b) ]));
        (1, mk (fun t a c b d -> Slp.[ Mul (t, a, c); Neg (t, t); Neg (b, b); Add (d, b, t) ]));
        (* Fused twice: a2*k2 + (a1*k1 + b), and (a + b)*k. *)
        ( 1,
          map2
            (fun (t, a, c) (u, b, s) -> Slp.[ Mul (t, a, c); Add (u, t, b); Mul (s, b, c); Add (u, s, u) ])
            (triple reg reg k) (triple reg reg reg) );
        (1, mk (fun t a c b d -> Slp.[ Add (t, a, b); Mul (d, t, c) ]));
        (* Must not fuse: the product is read again later, read twice, or
           also an output (the output list is drawn over the same few
           registers).  May fuse: the product recycles its source
           register, or the destination is a source. *)
        (1, mk (fun t a c b d -> Slp.[ Mul (t, a, c); Add (d, t, b); Add (b, a, t) ]));
        (1, mk (fun t a c _ d -> Slp.[ Mul (t, a, c); Add (d, t, t) ]));
        (1, mk (fun _ a c b d -> Slp.[ Mul (a, a, c); Add (d, a, b) ]));
        (1, mk (fun t a c b _ -> Slp.[ Mul (t, a, c); Add (b, t, b) ]));
      ]
  in
  let* instrs = map List.concat (list_size (int_range 1 10) snippet) in
  let* outputs = array_size (int_range 1 3) reg in
  return
    (Slp.of_parts ~inputs:[| x; y |] ~instrs:(Array.of_list instrs) ~init ~outputs)

let print_raw_program p = Format.asprintf "%a" Slp.pp p

(* Every output of every point, as IEEE-754 bits, against scalar eval. *)
let batch_matches_scalar ~block ~jobs p xs ys =
  let batch = Slp.eval_batch ~block ~jobs p [| xs; ys |] in
  let ok = ref true in
  Array.iteri
    (fun i vx ->
      let out = Slp.eval p [| vx; ys.(i) |] in
      Array.iteri (fun j v -> if bits v <> bits batch.(j).(i) then ok := false) out)
    xs;
  !ok

let prop_lowered_batch_matches_scalar =
  QCheck2.Test.make ~name:"lowered batch kernel bit-identical to scalar eval on raw bytecode"
    ~count:1000 ~print:(fun (p, _, _, _) -> print_raw_program p)
    QCheck2.Gen.(
      quad raw_program_gen (int_range 1 12) (int_range 1 2)
        (list_size (int_range 1 40) (pair float_gen float_gen)))
    (fun (p, block, jobs, points) ->
      let xs = Array.of_list (List.map fst points)
      and ys = Array.of_list (List.map snd points) in
      batch_matches_scalar ~block ~jobs p xs ys)

(* [Slp.digest] writes the bytes its [Printf] spelling below names: codegen
   cache entries, artifacts' kernels and run keys stay put. *)
let printf_digest p =
  let b = Buffer.create 256 in
  Printf.bprintf b "awesym-slp/1\n%d" (Array.length (Slp.inputs p));
  Array.iter
    (fun instr ->
      Buffer.add_char b '\n';
      match instr with
      | Slp.Load_input (r, s) -> Printf.bprintf b "L %d %d" r s
      | Slp.Add (r, a, c) -> Printf.bprintf b "A %d %d %d" r a c
      | Slp.Mul (r, a, c) -> Printf.bprintf b "M %d %d %d" r a c
      | Slp.Neg (r, a) -> Printf.bprintf b "N %d %d" r a
      | Slp.Inv (r, a) -> Printf.bprintf b "I %d %d" r a
      | Slp.Sqrt (r, a) -> Printf.bprintf b "S %d %d" r a
      | Slp.Exp (r, a) -> Printf.bprintf b "E %d %d" r a)
    (Slp.instructions p);
  Buffer.add_char b '\n';
  Array.iter (fun c -> Printf.bprintf b "c%Lx" (bits c)) (Slp.init_registers p);
  Buffer.add_char b '\n';
  Array.iter (fun r -> Printf.bprintf b "o%d" r) (Slp.output_registers p);
  Digest.to_hex (Digest.string (Buffer.contents b))

let prop_digest_matches_printf =
  QCheck2.Test.make ~name:"digest ≡ its Printf spelling" ~count:500
    ~print:print_raw_program raw_program_gen (fun p -> Slp.digest p = printf_digest p)

(* Hundreds of registers, so every field is several digits long. *)
let test_digest_wide_program () =
  let terms = List.init 300 (fun i -> Expr.mul (Expr.const (float_of_int i -. 150.5)) (Expr.sym x)) in
  let e = List.fold_left Expr.add (Expr.sym y) terms in
  List.iter
    (fun optimize ->
      let p = Slp.compile ~optimize ~inputs:[| x; y |] [| e; Expr.neg e |] in
      Alcotest.(check string) "digest" (printf_digest p) (Slp.digest p))
    [ false; true ]

(* Lowered-instruction counts, read off [slp.eval_batch.dispatched]
   (points × lowered instructions): each program runs once per initial
   register file in [inits], and is checked against scalar eval over
   every pair of special values as well. *)
let check_lowering ~inits cases =
  let n = Array.length special_floats in
  let xs = Array.init (n * n) (fun i -> special_floats.(i / n))
  and ys = Array.init (n * n) (fun i -> special_floats.(i mod n)) in
  List.iter
    (fun (name, instrs, outputs, lowered) ->
      List.iter
        (fun init ->
          let name = Printf.sprintf "%s (k = %h)" name init.(3) in
          let p =
            Slp.of_parts ~inputs:[| x; y |] ~instrs:(Array.of_list instrs) ~init ~outputs
          in
          Obs.Metrics.reset ();
          Obs.enabled := true;
          let same =
            Fun.protect ~finally:(fun () -> Obs.enabled := false) (fun () ->
                batch_matches_scalar ~block:7 ~jobs:1 p xs ys)
          in
          Alcotest.(check bool) (name ^ ": bit-identical") true same;
          Alcotest.(check int) (name ^ ": lowered instructions") lowered
            (Obs.Metrics.counter "slp.eval_batch.dispatched" / (n * n)))
        inits)
    cases

(* Which [Neg]s the lowering drops. *)
let test_lowering_keeps_unsafe_negs () =
  check_lowering ~inits:[ [| 0.0; 0.0; 0.0; -0.0 |] ]
    Slp.
      [
        ("in-place Neg read by an Add", [ Load_input (0, 0); Neg (0, 0); Load_input (1, 1); Add (1, 1, 0) ], [| 1 |], 3);
        ("(-a) + (-b)", [ Load_input (0, 0); Load_input (1, 1); Neg (0, 0); Neg (1, 1); Add (2, 0, 1) ], [| 2 |], 3);
        ("t + t", [ Load_input (0, 0); Neg (1, 0); Add (2, 1, 1) ], [| 2 |], 2);
        ("source rewritten first", [ Load_input (0, 0); Neg (1, 0); Load_input (0, 1); Add (2, 0, 1) ], [| 2 |], 4);
        ("also an output", [ Load_input (0, 0); Neg (1, 0); Load_input (2, 1); Add (2, 2, 1) ], [| 1; 2 |], 4);
        ("read by a Mul", [ Load_input (0, 0); Neg (0, 0); Load_input (1, 1); Mul (1, 1, 0) ], [| 1 |], 4);
        ("negated constant", [ Neg (3, 3); Load_input (0, 0); Add (1, 0, 3) ], [| 1 |], 2);
      ]

(* Which pairs the lowering fuses.  Registers 3 and 4 are constants k and
   k2, run over every special value, so ±0, ±∞, NaN and subnormals reach
   each form and its negated constant.  Registers 0 and 1 load x and y
   first: each fused row lowers to those two loads and one fused
   instruction; unfused, it would take one more per pair. *)
let test_lowering_fuses_single_use_pairs () =
  let n = Array.length special_floats in
  let inits =
    List.init n (fun i -> [| 0.0; 0.0; 0.0; special_floats.(i); special_floats.((i + 5) mod n) |])
  in
  let xy rest = Slp.(Load_input (0, 0) :: Load_input (1, 1) :: rest) in
  check_lowering ~inits
    Slp.
      [
        ("a*k + b", xy [ Mul (2, 0, 3); Add (2, 2, 1) ], [| 2 |], 3);
        ("b + a*k", xy [ Mul (2, 0, 3); Add (2, 1, 2) ], [| 2 |], 3);
        ("a*k - b", xy [ Mul (2, 0, 3); Neg (1, 1); Add (2, 2, 1) ], [| 2 |], 3);
        ("b - a*k", xy [ Mul (2, 0, 3); Neg (2, 2); Add (2, 1, 2) ], [| 2 |], 3);
        ("(-(a*k)) - b", xy [ Mul (2, 0, 3); Neg (2, 2); Neg (1, 1); Add (2, 2, 1) ], [| 2 |], 3);
        ("(-b) - a*k", xy [ Mul (2, 0, 3); Neg (2, 2); Neg (1, 1); Add (2, 1, 2) ], [| 2 |], 3);
        ("a2*k2 + (a1*k1 + b)", xy [ Mul (2, 0, 3); Add (2, 2, 1); Mul (0, 1, 4); Add (2, 0, 2) ], [| 2 |], 3);
        ("(a + b)*k", xy [ Add (2, 0, 1); Mul (2, 2, 3) ], [| 2 |], 3);
        (* The superinstruction reads every source before it writes, so
           neither of these blocks the pair. *)
        ("the product recycles its source register", xy [ Mul (0, 0, 3); Add (2, 0, 1) ], [| 2 |], 3);
        ("the destination is a source", xy [ Mul (2, 0, 3); Add (1, 2, 1) ], [| 1 |], 3);
        (* Blocked. *)
        ("the product is read again later", xy [ Mul (2, 0, 3); Add (1, 2, 1); Add (0, 2, 0) ], [| 0; 1 |], 5);
        ("the product is read twice", xy [ Mul (2, 0, 3); Add (2, 2, 2) ], [| 2 |], 4);
        ("the product is also an output", xy [ Mul (2, 0, 3); Add (0, 2, 1) ], [| 0; 2 |], 4);
        ("the reader is not the next instruction", [ Load_input (0, 0); Mul (2, 0, 3); Load_input (1, 1); Add (2, 2, 1) ], [| 2 |], 4);
      ]

(* [Slp.select p ks] keeps only what outputs [ks] read.  The raw programs
   gain two constant outputs (the registers no snippet writes), so a
   subset may be empty, constant-only, every output, or a random pick
   with repeats in any order.  Each kept output has the bits of the full
   program's, under scalar [eval] and the batch kernel, and selecting the
   same subset again returns the physically same program. *)
let select_case_gen =
  let open QCheck2.Gen in
  let* p = raw_program_gen in
  let nr = Slp.num_registers p in
  let outputs = Array.append (Slp.output_registers p) [| nr - 2; nr - 1 |] in
  let p =
    Slp.of_parts ~inputs:(Slp.inputs p) ~instrs:(Slp.instructions p)
      ~init:(Slp.init_registers p) ~outputs
  in
  let n = Array.length outputs in
  let* ks =
    frequency
      [
        (1, return [||]);
        (1, array_size (int_range 1 2) (int_range (n - 2) (n - 1)));
        (1, return (Array.init n Fun.id));
        (4, array_size (int_range 1 (n + 1)) (int_bound (n - 1)));
      ]
  in
  return (p, ks)

let prop_select_matches_full =
  QCheck2.Test.make ~name:"select ≡ the full program's outputs, bit for bit"
    ~count:1000
    ~print:(fun ((p, ks), _, _, _) ->
      Printf.sprintf "%s\nselect [%s]" (print_raw_program p)
        (String.concat "; " (Array.to_list (Array.map string_of_int ks))))
    QCheck2.Gen.(
      quad select_case_gen (int_range 1 12) (int_range 1 2)
        (list_size (int_range 1 40) (pair float_gen float_gen)))
    (fun ((p, ks), block, jobs, points) ->
      let q = Slp.select p ks in
      let xs = Array.of_list (List.map fst points)
      and ys = Array.of_list (List.map snd points) in
      let full = Slp.eval_batch ~block ~jobs p [| xs; ys |]
      and cut = Slp.eval_batch ~block ~jobs q [| xs; ys |] in
      let scalar_ok =
        List.for_all
          (fun (vx, vy) ->
            let f = Slp.eval p [| vx; vy |] and c = Slp.eval q [| vx; vy |] in
            Array.length c = Array.length ks
            && Array.for_all2 (fun k v -> bits v = bits f.(k)) ks c)
          points
      in
      scalar_ok
      && Array.length cut = Array.length ks
      && Array.for_all2
           (fun k col -> Array.for_all2 (fun a b -> bits a = bits b) col full.(k))
           ks cut
      && Slp.num_instructions q <= Slp.num_instructions p
      && Slp.select p ks == q)

(* On a compiled program, [select] drops the work only other outputs
   need, counts it as dropped rather than folded, memoizes the latest
   subset, and rejects an index outside the outputs. *)
let test_select_drops_unread_work () =
  let a = Expr.mul (Expr.sym x) (Expr.sym y) in
  let b = Expr.exp (Expr.add a (Expr.sym x)) in
  let p = Slp.compile ~inputs:[| x; y |] [| a; b; Expr.const 2.0 |] in
  Obs.Metrics.reset ();
  Obs.enabled := true;
  let q =
    Fun.protect ~finally:(fun () -> Obs.enabled := false) (fun () ->
        let q = Slp.select p [| 0 |] in
        ignore (Slp.select p [| 0 |]);
        q)
  in
  Alcotest.(check int) "dropped once, on the memo miss"
    (Slp.num_instructions p - Slp.num_instructions q)
    (Obs.Metrics.counter "slp.select.dropped_ops");
  Alcotest.(check (pair int int)) "optimize counters untouched" (0, 0)
    ( Obs.Metrics.counter "slp.optimize.folded_ops",
      Obs.Metrics.counter "slp.optimize.saved_regs" );
  Alcotest.(check int) "x * y alone" 3 (Slp.num_instructions q);
  Alcotest.(check bool) "the same subset again: the memoized program" true
    (Slp.select p [| 0 |] == q);
  let r = Slp.select p [| 1 |] in
  Alcotest.(check bool) "another subset: its own memoized program" true
    (r != q && Slp.select p [| 1 |] == r);
  Alcotest.(check int) "constant output alone" 0
    (Slp.num_instructions (Slp.select p [| 2 |]));
  check_float "kept output" 6.0 (Slp.eval q [| 2.0; 3.0 |]).(0);
  Alcotest.check_raises "index past the outputs"
    (Invalid_argument "Slp.select: output 3 out of range [0, 3)") (fun () ->
      ignore (Slp.select p [| 0; 3 |]))

(* ------------------------------------------------------------------ *)
(* Interval arithmetic and interval program evaluation *)

module Interval = Symbolic.Interval

let test_interval_basic () =
  let a = Interval.make 1.0 2.0 and b = Interval.make (-1.0) 3.0 in
  let lo, hi = Interval.bounds (Interval.mul a b) in
  check_float "mul lo" (-2.0) lo;
  check_float "mul hi" 6.0 hi;
  let lo, hi = Interval.bounds (Interval.sub a b) in
  check_float "sub lo" (-2.0) lo;
  check_float "sub hi" 3.0 hi;
  let lo, hi = Interval.bounds (Interval.inv a) in
  check_float "inv lo" 0.5 lo;
  check_float "inv hi" 1.0 hi

let test_interval_guards () =
  (match Interval.make 2.0 1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted bounds accepted");
  (match Interval.inv (Interval.make (-1.0) 1.0) with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "inv through zero accepted");
  match Interval.sqrt (Interval.make (-1.0) 1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sqrt of negative accepted"

let prop_interval_soundness =
  (* Every sampled evaluation lies inside the interval evaluation. *)
  QCheck2.Test.make ~name:"interval SLP evaluation encloses all samples"
    ~count:200
    QCheck2.Gen.(
      quad expr_gen (float_range 0.5 2.0) (float_range 0.5 2.0)
        (pair (float_range 0.0 0.5) (float_range 0.0 0.5)))
    (fun (e, vx, vy, (wx, wy)) ->
      let p = Slp.compile ~inputs:[| x; y |] [| e |] in
      let boxes =
        [| Interval.make (vx -. wx) (vx +. wx);
           Interval.make (vy -. wy) (vy +. wy) |]
      in
      match Slp.eval_interval p boxes with
      | exception Division_by_zero -> QCheck2.assume_fail ()
      | enclosure ->
        (* Sample the corners and the center. *)
        List.for_all
          (fun (sx, sy) ->
            let v = (Slp.eval p [| sx; sy |]).(0) in
            Float.is_nan v
            || Interval.contains enclosure.(0) v
            || Float.abs v *. 1e-12 > 0.0
               && Interval.contains
                    (Interval.make
                       (fst (Interval.bounds enclosure.(0)) -. (1e-9 *. Float.abs v))
                       (snd (Interval.bounds enclosure.(0)) +. (1e-9 *. Float.abs v)))
                    v)
          [ (vx -. wx, vy -. wy); (vx -. wx, vy +. wy); (vx +. wx, vy -. wy);
            (vx +. wx, vy +. wy); (vx, vy) ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "symbolic"
    [
      ("symbol", [ quick "interning" test_symbol_interning ]);
      ( "monomial",
        [
          quick "mul/div" test_monomial_mul_div;
          quick "gcd" test_monomial_gcd;
          quick "derivative" test_monomial_deriv;
        ]
        @ props [ prop_monomial_order_total; prop_monomial_mul_respects_order ] );
      ( "mpoly",
        [
          quick "binomial arithmetic" test_mpoly_arith;
          quick "cancellation to zero" test_mpoly_cancellation;
          quick "evaluation" test_mpoly_eval;
          quick "derivative" test_mpoly_deriv;
          quick "substitution" test_mpoly_substitute;
          quick "coefficients in a variable" test_mpoly_coeffs_in;
          quick "exact division" test_mpoly_div_exact;
          quick "multilinearity predicate" test_mpoly_multilinear;
        ]
        @ props
            [ prop_mpoly_ring; prop_mpoly_eval_hom; prop_mpoly_deriv_linear;
              prop_coeffs_in_reconstruct ] );
      ( "ratfun",
        [
          quick "monomial cancellation" test_ratfun_simplify;
          quick "field operations" test_ratfun_field_ops;
          quick "inverse" test_ratfun_inv;
          quick "derivative quotient rule" test_ratfun_deriv;
          quick "zero denominator raises" test_ratfun_zero_den;
        ]
        @ props [ prop_ratfun_field; prop_ratfun_substitute ] );
      ( "expr",
        [
          quick "constant folding identities" test_expr_fold_identities;
          quick "hash-consing commutative sharing" test_expr_hash_consing;
          quick "evaluation" test_expr_eval;
          quick "derivative" test_expr_deriv;
          quick "of_ratfun faithful" test_expr_of_ratfun;
          quick "symbols and DAG size" test_expr_symbols_and_size;
        ]
        @ props [ prop_expr_deriv_numeric; prop_expr_eval_matches_mpoly ] );
      ( "slp",
        [
          quick "compile and evaluate" test_slp_eval;
          quick "common subexpressions shared" test_slp_cse;
          quick "missing input rejected" test_slp_missing_input;
          quick "evaluator reuse" test_slp_evaluator_reuse;
          quick "disassembly smoke" test_slp_pp_smoke;
          quick "multiple outputs share work" test_slp_multiple_outputs;
          quick "constants preloaded" test_slp_constants_preloaded;
          quick "slp aliasing contract" test_slp_aliasing_contract;
          quick "batch evaluator is single-owner"
            test_batch_evaluator_single_owner;
          quick "lowering keeps every unsafe Neg" test_lowering_keeps_unsafe_negs;
          quick "lowering fuses single-use pairs" test_lowering_fuses_single_use_pairs;
          quick "select drops unread work" test_select_drops_unread_work;
          quick "digest of a wide program ≡ its Printf spelling" test_digest_wide_program;
        ]
        @ props
            [ prop_slp_matches_eval; prop_slp_batch_matches_scalar;
              prop_slp_optimizer_bit_identical; prop_lowered_batch_matches_scalar;
              prop_select_matches_full; prop_digest_matches_printf ] );
      ( "misc",
        [
          quick "mpoly printer" test_mpoly_printer;
          quick "degree profile" test_mpoly_degree_profile;
          quick "negative integer powers" test_expr_pow_negative;
          quick "ratfun powers" test_ratfun_pow;
          quick "register accounting" test_slp_num_registers;
        ] );
      ( "interval",
        [
          quick "arithmetic" test_interval_basic;
          quick "guards" test_interval_guards;
        ]
        @ props [ prop_interval_soundness ] );
    ]
