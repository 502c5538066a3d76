(* Unit and property tests for the numeric substrate. *)

module Matrix = Numeric.Matrix
module Lu = Numeric.Lu
module Cx = Numeric.Cx
module Poly = Numeric.Poly
module Roots = Numeric.Roots

let check_float ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

let check_complex ?(tol = 1e-9) name (expected : Cx.t) (actual : Cx.t) =
  if Cx.norm (Cx.sub expected actual) > tol *. Float.max 1.0 (Cx.norm expected)
  then
    Alcotest.failf "%s: expected %s, got %s" name
      (Format.asprintf "%a" Cx.pp expected)
      (Format.asprintf "%a" Cx.pp actual)

(* ------------------------------------------------------------------ *)
(* Matrix *)

let test_matrix_basic () =
  let m = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "get" 3.0 (Matrix.get m 1 0);
  Matrix.add_entry m 1 0 0.5;
  check_float "add_entry" 3.5 (Matrix.get m 1 0);
  let t = Matrix.transpose m in
  check_float "transpose" 3.5 (Matrix.get t 0 1)

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float "mul 00" 19.0 (Matrix.get c 0 0);
  check_float "mul 01" 22.0 (Matrix.get c 0 1);
  check_float "mul 10" 43.0 (Matrix.get c 1 0);
  check_float "mul 11" 50.0 (Matrix.get c 1 1)

let test_matrix_vec () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = Matrix.mul_vec a [| 1.0; 1.0 |] in
  check_float "mul_vec 0" 3.0 v.(0);
  check_float "mul_vec 1" 7.0 v.(1);
  let w = Matrix.mul_vec_transpose a [| 1.0; 1.0 |] in
  check_float "mul_vec_t 0" 4.0 w.(0);
  check_float "mul_vec_t 1" 6.0 w.(1)

let test_matrix_identity () =
  let i3 = Matrix.identity 3 in
  let a = Matrix.init 3 3 (fun i j -> float_of_int ((3 * i) + j)) in
  Alcotest.(check bool) "I·A = A" true (Matrix.equal (Matrix.mul i3 a) a);
  Alcotest.(check bool) "A·I = A" true (Matrix.equal (Matrix.mul a i3) a)

let test_matrix_shape_mismatch () =
  let a = Matrix.create 2 3 and b = Matrix.create 2 2 in
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Matrix.add: shape mismatch") (fun () ->
      ignore (Matrix.add a b))

(* ------------------------------------------------------------------ *)
(* LU *)

let test_lu_solve_known () =
  let a = Matrix.of_arrays [| [| 4.0; 3.0 |]; [| 6.0; 3.0 |] |] in
  let x = Lu.solve_dense a [| 10.0; 12.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_lu_det () =
  let a = Matrix.of_arrays [| [| 4.0; 3.0 |]; [| 6.0; 3.0 |] |] in
  check_float "det" (-6.0) (Lu.det (Lu.factor a))

let test_lu_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Lu.factor a with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_lu_transpose_solve () =
  let a = Matrix.of_arrays [| [| 2.0; 1.0; 0.0 |]; [| 1.0; 3.0; 1.0 |]; [| 0.0; 1.0; 4.0 |] |] in
  let lu = Lu.factor a in
  let b = [| 1.0; 2.0; 3.0 |] in
  let x = Lu.solve_transpose lu b in
  let back = Matrix.mul_vec (Matrix.transpose a) x in
  Array.iteri (fun i v -> check_float (Printf.sprintf "aT·x = b [%d]" i) b.(i) v) back

let test_lu_inverse () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 5.0 |] |] in
  let inv = Lu.inverse (Lu.factor a) in
  Alcotest.(check bool) "A·A⁻¹ = I" true
    (Matrix.equal ~tol:1e-9 (Matrix.mul a inv) (Matrix.identity 2))

(* The Hager/Higham reciprocal-condition estimate: exact on identity-like
   matrices, honest (tiny) on near-singular and notoriously ill-conditioned
   ones, and always in [0, 1]. *)
let test_lu_rcond () =
  let rcond a = (Lu.health (Lu.factor a)).Lu.rcond in
  check_float "identity" 1.0 (rcond (Matrix.identity 5));
  check_float "scaled identity" 1.0
    (rcond (Matrix.of_arrays [| [| 1e6; 0.0 |]; [| 0.0; 1e6 |] |]));
  let near_singular =
    Matrix.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 +. 1e-12 |] |]
  in
  Alcotest.(check bool) "near-singular is tiny" true
    (rcond near_singular < 1e-10);
  let hilbert n = Matrix.init n n (fun i j -> 1.0 /. float_of_int (i + j + 1)) in
  Alcotest.(check bool) "hilbert 8 is tiny" true (rcond (hilbert 8) < 1e-7);
  List.iter
    (fun a ->
      let r = rcond a in
      Alcotest.(check bool) "in [0, 1]" true (0.0 <= r && r <= 1.0))
    [ Matrix.identity 3; near_singular; hilbert 6; hilbert 10 ];
  (* Well-conditioned but not trivially so: the estimate stays O(1). *)
  let a = Matrix.of_arrays [| [| 4.0; 3.0 |]; [| 6.0; 3.0 |] |] in
  Alcotest.(check bool) "well-conditioned is O(1)" true (rcond a > 1e-3)

let test_sparse_rcond_proxy () =
  let dense = Matrix.of_arrays [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let sp = Numeric.Sparse.of_dense dense in
  let h = Numeric.Sparse.health (Numeric.Sparse.factor sp) in
  Alcotest.(check bool) "sparse proxy in (0, 1]" true
    (0.0 < h.Lu.rcond && h.Lu.rcond <= 1.0)

(* Property: LU solve residual is tiny for random diagonally dominant
   systems. *)
let prop_lu_residual =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* entries = array_size (return (n * n)) (float_range (-1.0) 1.0) in
      let* rhs = array_size (return n) (float_range (-10.0) 10.0) in
      return (n, entries, rhs))
  in
  QCheck2.Test.make ~name:"lu residual small on diag-dominant systems"
    ~count:200 gen (fun (n, entries, rhs) ->
      let a =
        Matrix.init n n (fun i j ->
            let v = entries.((i * n) + j) in
            if i = j then v +. float_of_int n +. 1.0 else v)
      in
      let x = Lu.solve_dense a rhs in
      let back = Matrix.mul_vec a x in
      Array.for_all2
        (fun u v -> Float.abs (u -. v) <= 1e-8 *. Float.max 1.0 (Float.abs u))
        rhs back)

let prop_lu_transpose_consistent =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* entries = array_size (return (n * n)) (float_range (-1.0) 1.0) in
      let* rhs = array_size (return n) (float_range (-5.0) 5.0) in
      return (n, entries, rhs))
  in
  QCheck2.Test.make ~name:"solve_transpose equals solve on explicit transpose"
    ~count:200 gen (fun (n, entries, rhs) ->
      let a =
        Matrix.init n n (fun i j ->
            let v = entries.((i * n) + j) in
            if i = j then v +. float_of_int n +. 1.0 else v)
      in
      let lu = Lu.factor a in
      let x1 = Lu.solve_transpose lu rhs in
      let x2 = Lu.solve_dense (Matrix.transpose a) rhs in
      Array.for_all2 (fun u v -> Float.abs (u -. v) <= 1e-8 *. Float.max 1.0 (Float.abs u)) x1 x2)

(* The one-shot solve skips the health record but not a bit of the
   solution: random systems, and rank-deficient ones (a repeated row, a
   zero column) whose elimination runs out of pivots part-way. *)
let prop_lu_solve_dense_matches_factor =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 7 in
      let* entries = array_size (return (n * n)) (float_range (-1.0) 1.0) in
      let* rhs = array_size (return n) (float_range (-5.0) 5.0) in
      let* kind = int_range 0 2 and* i = int_range 0 (n - 1) and* j = int_range 0 (n - 1) in
      return (n, entries, rhs, kind, i, j))
  in
  let print (n, entries, rhs, kind, i, j) =
    Printf.sprintf "n=%d kind=%d i=%d j=%d entries=[%s] rhs=[%s]" n kind i j
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") entries)))
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") rhs)))
  in
  QCheck2.Test.make ~name:"solve_dense ≡ solve ∘ factor, bits and Singular column"
    ~count:500 ~print gen (fun (n, entries, rhs, kind, i, j) ->
      let a =
        Matrix.init n n (fun r c ->
            match kind with
            | 1 when r = j && i <> j -> entries.((i * n) + c)
            | 2 when c = j -> 0.0
            | _ -> entries.((r * n) + c))
      in
      let outcome f =
        match f () with
        | x -> Ok (Array.map Int64.bits_of_float x)
        | exception Lu.Singular k -> Error k
      in
      outcome (fun () -> Lu.solve_dense a rhs)
      = outcome (fun () -> Lu.solve (Lu.factor a) rhs))

(* ------------------------------------------------------------------ *)
(* Complex *)

let test_cx_arith () =
  let z = Cx.mul (Cx.make 1.0 2.0) (Cx.make 3.0 (-1.0)) in
  check_complex "mul" (Cx.make 5.0 5.0) z;
  check_complex "inv·z = 1" Cx.one (Cx.mul z (Cx.inv z));
  check_complex "pow_int" (Cx.make (-2.0) 2.0) (Cx.pow_int (Cx.make 1.0 1.0) 3);
  check_complex "pow_int neg" (Cx.inv (Cx.make (-2.0) 2.0))
    (Cx.pow_int (Cx.make 1.0 1.0) (-3))

(* ------------------------------------------------------------------ *)
(* Cmatrix *)

let test_cmatrix_solve () =
  (* (1+i)·x + y = 3+i;  x − y = i  →  solve and verify by substitution. *)
  let a =
    Numeric.Cmatrix.init 2 2 (fun i j ->
        match (i, j) with
        | 0, 0 -> Cx.make 1.0 1.0
        | 0, 1 -> Cx.one
        | 1, 0 -> Cx.one
        | _ -> Cx.neg Cx.one)
  in
  let b = [| Cx.make 3.0 1.0; Cx.i |] in
  let x = Numeric.Cmatrix.solve a b in
  let back = Numeric.Cmatrix.mul_vec a x in
  Array.iteri
    (fun k v -> check_complex (Printf.sprintf "residual %d" k) b.(k) v)
    back

let test_cmatrix_combine () =
  let g = Matrix.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  let c = Matrix.of_arrays [| [| 0.5; 0.0 |]; [| 0.0; 0.25 |] |] in
  let s = Cx.make 0.0 2.0 in
  let m = Numeric.Cmatrix.combine g s c in
  check_complex "entry 00" (Cx.make 1.0 1.0) (Numeric.Cmatrix.get m 0 0);
  check_complex "entry 11" (Cx.make 2.0 0.5) (Numeric.Cmatrix.get m 1 1)

let test_cmatrix_singular () =
  let a = Numeric.Cmatrix.init 2 2 (fun _ _ -> Cx.one) in
  match Numeric.Cmatrix.solve a [| Cx.one; Cx.one |] with
  | exception Numeric.Cmatrix.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let prop_cmatrix_residual =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 5 in
      let* re = array_size (return (n * n)) (float_range (-1.0) 1.0) in
      let* im = array_size (return (n * n)) (float_range (-1.0) 1.0) in
      let* rhs = array_size (return n) (float_range (-3.0) 3.0) in
      return (n, re, im, rhs))
  in
  QCheck2.Test.make ~name:"complex solve residual small" ~count:200 gen
    (fun (n, re, im, rhs) ->
      let a =
        Numeric.Cmatrix.init n n (fun i j ->
            let k = (i * n) + j in
            let base = Cx.make re.(k) im.(k) in
            if i = j then Cx.add base (Cx.of_float (float_of_int n +. 1.0))
            else base)
      in
      let b = Array.map Cx.of_float rhs in
      let x = Numeric.Cmatrix.solve a b in
      let back = Numeric.Cmatrix.mul_vec a x in
      Array.for_all2
        (fun u v -> Cx.norm (Cx.sub u v) <= 1e-8 *. Float.max 1.0 (Cx.norm u))
        b back)

(* ------------------------------------------------------------------ *)
(* Sparse *)

module Sparse = Numeric.Sparse

let test_sparse_roundtrip () =
  let d = Matrix.of_arrays [| [| 2.0; 0.0; 1.0 |]; [| 0.0; 3.0; 0.0 |]; [| -1.0; 0.0; 4.0 |] |] in
  let s = Sparse.of_dense d in
  Alcotest.(check int) "nnz" 5 (Sparse.nnz s);
  Alcotest.(check bool) "roundtrip" true (Matrix.equal d (Sparse.to_dense s))

let test_sparse_entries_accumulate () =
  let s = Sparse.of_entries 2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, 5.0) ] in
  check_float "stamped" 3.0 (Matrix.get (Sparse.to_dense s) 0 0)

let test_sparse_solve_known () =
  let s = Sparse.of_entries 2 [ (0, 0, 4.0); (0, 1, 3.0); (1, 0, 6.0); (1, 1, 3.0) ] in
  let x = Sparse.solve (Sparse.factor s) [| 10.0; 12.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_sparse_needs_pivoting () =
  (* Zero leading diagonal forces a row exchange. *)
  let s = Sparse.of_entries 2 [ (0, 1, 1.0); (1, 0, 2.0); (1, 1, 1.0) ] in
  let x = Sparse.solve (Sparse.factor s) [| 3.0; 5.0 |] in
  (* 0·x0 + 1·x1 = 3; 2·x0 + x1 = 5 → x1 = 3, x0 = 1. *)
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_sparse_singular () =
  let s = Sparse.of_entries 2 [ (0, 0, 1.0); (1, 0, 2.0) ] in
  match Sparse.factor s with
  | exception Sparse.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_sparse_tridiagonal_no_fill () =
  (* Ladder-like tridiagonal: natural order factors with zero fill-in. *)
  let n = 50 in
  let entries = ref [] in
  for i = 0 to n - 1 do
    entries := (i, i, 4.0) :: !entries;
    if i > 0 then entries := (i, i - 1, -1.0) :: (i - 1, i, -1.0) :: !entries
  done;
  let s = Sparse.of_entries n !entries in
  let f = Sparse.factor s in
  Alcotest.(check int) "zero fill-in" 0 (Sparse.fill_in f);
  let b = Array.init n (fun i -> float_of_int (i mod 7)) in
  let x = Sparse.solve f b in
  let back = Sparse.mul_vec s x in
  Array.iteri
    (fun i v -> check_float ~tol:1e-9 (Printf.sprintf "residual %d" i) b.(i) v)
    back

let prop_sparse_matches_dense =
  (* Random sparse diagonally dominant systems: sparse LU ≡ dense LU. *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 12 in
      let* entries =
        list_size (int_range 0 (3 * n))
          (let* i = int_range 0 (n - 1) in
           let* j = int_range 0 (n - 1) in
           let* v = float_range (-1.0) 1.0 in
           return (i, j, v))
      in
      let* rhs = array_size (return n) (float_range (-5.0) 5.0) in
      return (n, entries, rhs))
  in
  QCheck2.Test.make ~name:"sparse LU matches dense LU" ~count:300 gen
    (fun (n, entries, rhs) ->
      let diag = List.init n (fun i -> (i, i, float_of_int n +. 2.0)) in
      let s = Sparse.of_entries n (diag @ entries) in
      let xs = Sparse.solve (Sparse.factor s) rhs in
      let xd = Lu.solve_dense (Sparse.to_dense s) rhs in
      Array.for_all2
        (fun a b -> Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b))
        xs xd)

let prop_sparse_circuit_matrices =
  (* MNA conductance matrices (indefinite, with aux rows) exercise real
     pivoting paths. *)
  QCheck2.Test.make ~name:"sparse LU on MNA matrices" ~count:50
    QCheck2.Gen.(int_range 2 20)
    (fun sections ->
      let nl = Circuit.Builders.rc_ladder ~sections ~r:100.0 ~c:1e-12 () in
      let mna = Circuit.Mna.build nl in
      let g = Circuit.Mna.g mna in
      let b = Circuit.Mna.input_vector mna in
      let xs = Sparse.solve (Sparse.factor (Sparse.of_dense g)) b in
      let xd = Lu.solve_dense g b in
      Array.for_all2
        (fun a c -> Float.abs (a -. c) <= 1e-9 *. Float.max 1.0 (Float.abs c))
        xs xd)

(* ------------------------------------------------------------------ *)
(* Poly *)

let test_poly_arith () =
  let p = Poly.of_coeffs [| 1.0; 2.0; 3.0 |] in
  let q = Poly.of_coeffs [| -1.0; 1.0 |] in
  let r = Poly.mul p q in
  (* (3x²+2x+1)(x−1) = 3x³ − x² − x − 1 *)
  Alcotest.(check bool) "mul" true
    (Poly.equal r (Poly.of_coeffs [| -1.0; -1.0; -1.0; 3.0 |]));
  check_float "eval" (Poly.eval p 2.0 *. Poly.eval q 2.0) (Poly.eval r 2.0)

let test_poly_divmod () =
  let p = Poly.of_coeffs [| -1.0; -1.0; -1.0; 3.0 |] in
  let q = Poly.of_coeffs [| -1.0; 1.0 |] in
  let quot, rem = Poly.divmod p q in
  Alcotest.(check bool) "exact quotient" true
    (Poly.equal quot (Poly.of_coeffs [| 1.0; 2.0; 3.0 |]));
  Alcotest.(check bool) "zero remainder" true (Poly.is_zero rem)

let test_poly_derivative () =
  let p = Poly.of_coeffs [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check bool) "derivative" true
    (Poly.equal (Poly.derivative p) (Poly.of_coeffs [| 2.0; 6.0; 12.0 |]))

let test_poly_trim () =
  let p = Poly.of_coeffs [| 1.0; 0.0; 0.0 |] in
  Alcotest.(check int) "degree trims" 0 (Poly.degree p);
  Alcotest.(check int) "zero degree" (-1) (Poly.degree Poly.zero)

let test_poly_shift_scale () =
  let p = Poly.of_coeffs [| 1.0; 2.0; 3.0 |] in
  let q = Poly.shift_scale p 2.0 in
  check_float "p(2x) at 3" (Poly.eval p 6.0) (Poly.eval q 3.0)

let prop_poly_ring =
  let coeffs = QCheck2.Gen.(array_size (int_range 0 5) (float_range (-4.0) 4.0)) in
  let gen = QCheck2.Gen.(triple coeffs coeffs coeffs) in
  QCheck2.Test.make ~name:"poly distributivity (a+b)·c = a·c + b·c" ~count:300
    gen (fun (a, b, c) ->
      let a = Poly.of_coeffs a and b = Poly.of_coeffs b and c = Poly.of_coeffs c in
      Poly.equal ~tol:1e-9
        (Poly.mul (Poly.add a b) c)
        (Poly.add (Poly.mul a c) (Poly.mul b c)))

let prop_poly_divmod =
  let coeffs lo hi = QCheck2.Gen.(array_size (int_range lo hi) (float_range (-4.0) 4.0)) in
  QCheck2.Test.make ~name:"divmod reconstructs: a = q·b + r" ~count:300
    QCheck2.Gen.(pair (coeffs 0 6) (coeffs 1 4))
    (fun (a, b) ->
      let a = Poly.of_coeffs a and b = Poly.of_coeffs b in
      QCheck2.assume (not (Poly.is_zero b));
      (* Keep the divisor's leading coefficient away from zero. *)
      QCheck2.assume (Float.abs (Poly.coeff b (Poly.degree b)) > 0.1);
      let q, r = Poly.divmod a b in
      (* Quotient coefficients can be large when the divisor's leading
         coefficient is small, so compare with a relative tolerance. *)
      let scale =
        Array.fold_left
          (fun acc c -> Float.max acc (Float.abs c))
          1.0
          (Array.concat [ Poly.coeffs a; Poly.coeffs q; Poly.coeffs b ])
      in
      Poly.equal ~tol:(1e-9 *. scale *. scale) a (Poly.add (Poly.mul q b) r)
      && Poly.degree r < Poly.degree b)

(* ------------------------------------------------------------------ *)
(* Roots *)

let test_quadratic_real () =
  let r1, r2 = Roots.quadratic 1.0 (-5.0) 6.0 in
  let lo, hi = if r1.Cx.re < r2.Cx.re then (r1, r2) else (r2, r1) in
  check_complex "root 2" (Cx.of_float 2.0) lo;
  check_complex "root 3" (Cx.of_float 3.0) hi

let test_quadratic_complex () =
  let r1, _ = Roots.quadratic 1.0 2.0 5.0 in
  check_float "re" (-1.0) r1.Cx.re;
  check_float "im magnitude" 2.0 (Float.abs r1.Cx.im)

let test_quadratic_cancellation () =
  (* x² − 1e8·x + 1 has roots ~1e8 and ~1e−8; the naive formula loses the
     small one entirely. *)
  let r1, r2 = Roots.quadratic 1.0 (-1e8) 1.0 in
  let small = if Cx.norm r1 < Cx.norm r2 then r1 else r2 in
  check_float ~tol:1e-6 "small root" 1e-8 small.Cx.re

let test_cubic () =
  (* (x−1)(x−2)(x−3) = x³ −6x² +11x −6 *)
  let roots = Roots.real_roots (Poly.of_coeffs [| -6.0; 11.0; -6.0; 1.0 |]) in
  Alcotest.(check int) "three real roots" 3 (Array.length roots);
  check_float "r0" 1.0 roots.(0);
  check_float "r1" 2.0 roots.(1);
  check_float "r2" 3.0 roots.(2)

let test_cubic_complex_pair () =
  (* (x+1)(x²+1): one real root. *)
  let p = Poly.mul (Poly.of_coeffs [| 1.0; 1.0 |]) (Poly.of_coeffs [| 1.0; 0.0; 1.0 |]) in
  let all = Roots.of_poly p in
  Alcotest.(check int) "three roots" 3 (Array.length all);
  let reals = Roots.real_roots p in
  Alcotest.(check int) "one real root" 1 (Array.length reals);
  check_float "real root" (-1.0) reals.(0)

let test_aberth_degree5 () =
  (* Roots 1..5. *)
  let p =
    List.fold_left
      (fun acc r -> Poly.mul acc (Poly.of_coeffs [| -.r; 1.0 |]))
      Poly.one [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
  in
  let roots = Roots.real_roots p in
  Alcotest.(check int) "five real roots" 5 (Array.length roots);
  List.iteri
    (fun k expected -> check_float ~tol:1e-6 (Printf.sprintf "root %d" k) expected roots.(k))
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ]

let prop_roots_evaluate_to_zero =
  let gen =
    QCheck2.Gen.(array_size (int_range 2 7) (float_range (-3.0) 3.0))
  in
  QCheck2.Test.make ~name:"polynomial vanishes at every reported root"
    ~count:200 gen (fun coeffs ->
      let p = Poly.of_coeffs coeffs in
      QCheck2.assume (Poly.degree p >= 1);
      QCheck2.assume (Float.abs (Poly.coeff p (Poly.degree p)) > 0.1);
      let scale =
        Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1.0 coeffs
      in
      Roots.of_poly p
      |> Array.for_all (fun z ->
             Cx.norm (Poly.eval_complex p z)
             <= 1e-5 *. scale *. Float.max 1.0 (Cx.pow_int z (Poly.degree p) |> Cx.norm)))

(* ------------------------------------------------------------------ *)
(* Fft *)

module Fft = Numeric.Fft

let test_fft_impulse () =
  (* DFT of a unit impulse is flat: every bin 1. *)
  let x = Array.init 8 (fun k -> if k = 0 then Cx.one else Cx.zero) in
  let spectrum = Fft.transform x in
  Array.iteri
    (fun k v -> check_complex (Printf.sprintf "bin %d" k) Cx.one v)
    spectrum

let test_fft_single_tone () =
  (* sin at 3 cycles per window lands exactly on bin 3 with amplitude 1. *)
  let n = 64 in
  let x =
    Array.init n (fun k ->
        Float.sin (2.0 *. Float.pi *. 3.0 *. float_of_int k /. float_of_int n))
  in
  let mags = Fft.magnitudes x in
  check_float "tone bin" 1.0 mags.(3);
  Array.iteri
    (fun k v ->
      if k <> 3 then check_float ~tol:1e-12 (Printf.sprintf "bin %d" k) 0.0 v)
    mags

let test_fft_dc_and_nyquist () =
  (* DC offset and the alternating (Nyquist) tone use the 1/N scale. *)
  let n = 16 in
  let x =
    Array.init n (fun k -> 2.5 +. (0.75 *. if k mod 2 = 0 then 1.0 else -1.0))
  in
  let mags = Fft.magnitudes x in
  check_float "dc" 2.5 mags.(0);
  check_float "nyquist" 0.75 mags.(n / 2)

let test_fft_matches_naive_dft () =
  let n = 16 in
  let x =
    Array.init n (fun k ->
        Cx.make (Float.cos (1.7 *. float_of_int k)) (0.3 *. float_of_int k))
  in
  let fast = Fft.transform x in
  for k = 0 to n - 1 do
    let acc = ref Cx.zero in
    for j = 0 to n - 1 do
      let ang = -2.0 *. Float.pi *. float_of_int (k * j) /. float_of_int n in
      acc := Cx.add !acc (Cx.mul x.(j) (Cx.make (Float.cos ang) (Float.sin ang)))
    done;
    check_complex ~tol:1e-10 (Printf.sprintf "bin %d" k) !acc fast.(k)
  done

let test_fft_rejects_bad_length () =
  Alcotest.check_raises "length 6"
    (Invalid_argument "Fft.transform: length must be 2^k") (fun () ->
      ignore (Fft.transform (Array.make 6 Cx.zero)))

let fft_signal_gen =
  QCheck2.Gen.(
    int_range 0 6 >>= fun log_n ->
    array_repeat (1 lsl log_n) (float_range (-10.0) 10.0))

let prop_fft_roundtrip =
  QCheck2.Test.make ~name:"fft: inverse (transform x) = x" ~count:100
    fft_signal_gen (fun signal ->
      let x = Array.map Cx.of_float signal in
      let y = Fft.inverse (Fft.transform x) in
      Array.for_all2 (fun a b -> Cx.norm (Cx.sub a b) < 1e-9) x y)

let prop_fft_parseval =
  QCheck2.Test.make ~name:"fft: Parseval energy identity" ~count:100
    fft_signal_gen (fun signal ->
      let n = Array.length signal in
      let x = Array.map Cx.of_float signal in
      let spectrum = Fft.transform x in
      let e_time = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 signal in
      let e_freq =
        Array.fold_left
          (fun acc v ->
            let m = Cx.norm v in
            acc +. (m *. m))
          0.0 spectrum
        /. float_of_int n
      in
      Float.abs (e_time -. e_freq) <= 1e-8 *. Float.max 1.0 e_time)

let prop_fft_linear =
  QCheck2.Test.make ~name:"fft: linearity" ~count:100
    QCheck2.Gen.(pair fft_signal_gen (float_range (-5.0) 5.0))
    (fun (signal, alpha) ->
      let x = Array.map Cx.of_float signal in
      let y =
        Array.mapi
          (fun k v -> Cx.add v (Cx.of_float (0.1 *. float_of_int k)))
          x
      in
      let lhs =
        Fft.transform (Array.map2 (fun a b -> Cx.add (Cx.scale alpha a) b) x y)
      in
      let fx = Fft.transform x and fy = Fft.transform y in
      let rhs = Array.map2 (fun a b -> Cx.add (Cx.scale alpha a) b) fx fy in
      Array.for_all2
        (fun a b -> Cx.norm (Cx.sub a b) <= 1e-8 *. Float.max 1.0 (Cx.norm a))
        lhs rhs)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "numeric"
    [
      ( "matrix",
        [
          quick "basic get/set/add_entry/transpose" test_matrix_basic;
          quick "matrix multiply" test_matrix_mul;
          quick "matrix-vector products" test_matrix_vec;
          quick "identity laws" test_matrix_identity;
          quick "shape mismatch raises" test_matrix_shape_mismatch;
        ] );
      ( "lu",
        [
          quick "solve known system" test_lu_solve_known;
          quick "determinant" test_lu_det;
          quick "singular detection" test_lu_singular;
          quick "transpose solve" test_lu_transpose_solve;
          quick "inverse" test_lu_inverse;
          quick "rcond estimate" test_lu_rcond;
          QCheck_alcotest.to_alcotest prop_lu_solve_dense_matches_factor;
        ]
        @ props [ prop_lu_residual; prop_lu_transpose_consistent ] );
      ("complex", [ quick "arithmetic" test_cx_arith ]);
      ( "cmatrix",
        [
          quick "complex solve" test_cmatrix_solve;
          quick "combine G + sC" test_cmatrix_combine;
          quick "singular detection" test_cmatrix_singular;
        ]
        @ props [ prop_cmatrix_residual ] );
      ( "sparse",
        [
          quick "dense roundtrip" test_sparse_roundtrip;
          quick "entry accumulation" test_sparse_entries_accumulate;
          quick "solve known system" test_sparse_solve_known;
          quick "pivoting row exchange" test_sparse_needs_pivoting;
          quick "singular detection" test_sparse_singular;
          quick "tridiagonal zero fill" test_sparse_tridiagonal_no_fill;
          quick "rcond proxy" test_sparse_rcond_proxy;
        ]
        @ props [ prop_sparse_matches_dense; prop_sparse_circuit_matrices ] );
      ( "poly",
        [
          quick "arithmetic" test_poly_arith;
          quick "divmod exact" test_poly_divmod;
          quick "derivative" test_poly_derivative;
          quick "normalization trims zeros" test_poly_trim;
          quick "shift_scale substitution" test_poly_shift_scale;
        ]
        @ props [ prop_poly_ring; prop_poly_divmod ] );
      ( "roots",
        [
          quick "quadratic real roots" test_quadratic_real;
          quick "quadratic complex roots" test_quadratic_complex;
          quick "quadratic cancellation-safe" test_quadratic_cancellation;
          quick "cubic three real" test_cubic;
          quick "cubic complex pair" test_cubic_complex_pair;
          quick "aberth on degree 5" test_aberth_degree5;
        ]
        @ props [ prop_roots_evaluate_to_zero ] );
      ( "fft",
        [
          quick "impulse has flat spectrum" test_fft_impulse;
          quick "single tone on exact bin" test_fft_single_tone;
          quick "dc and nyquist scaling" test_fft_dc_and_nyquist;
          quick "matches naive dft" test_fft_matches_naive_dft;
          quick "rejects non-power-of-two" test_fft_rejects_bad_length;
        ]
        @ props [ prop_fft_roundtrip; prop_fft_parseval; prop_fft_linear ] );
    ]
