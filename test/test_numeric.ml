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
(* Reference copies of both factorizations as they stood before their
   same-bits rewrites: the sparse pivot search scanning every remaining
   row, and the dense factors read through [Matrix.get].  The library
   must agree with them bit for bit, Singular column included. *)

let bits = Int64.bits_of_float
let bits_array = Array.map bits
let bits_rows = Array.map (Array.map (fun (j, v) -> (j, bits v)))

let health_bits (h : Lu.health) =
  (h.Lu.dim, bits h.Lu.pivot_min, bits h.Lu.pivot_max, bits h.Lu.growth, bits h.Lu.rcond)

module Ref_sparse = struct
  (* The rows [Sparse] stores: sorted, exact zeros dropped. *)
  let rows_of m =
    let d = Sparse.to_dense m in
    let n = Matrix.rows d in
    Array.init n (fun i ->
        List.init n Fun.id
        |> List.filter_map (fun j ->
               let v = Matrix.get d i j in
               if v <> 0.0 then Some (j, v) else None)
        |> Array.of_list)

  let factor rows0 =
    let n = Array.length rows0 in
    let max_a =
      Array.fold_left
        (fun acc row ->
          Array.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) acc row)
        0.0 rows0
    in
    let rows = Array.map Array.copy rows0 in
    let row_of_pos = Array.init n (fun i -> i) in
    let l_phys = Array.make n [] in
    let u_rows = Array.make n [||] in
    let work = Array.make n 0.0 in
    let touched = Array.make n false in
    for k = 0 to n - 1 do
      let best = ref (-1) in
      let best_mag = ref 0.0 in
      for pos = k to n - 1 do
        let row = rows.(row_of_pos.(pos)) in
        if Array.length row > 0 then begin
          let j0, v0 = row.(0) in
          if j0 = k && Float.abs v0 > !best_mag then begin
            best_mag := Float.abs v0;
            best := pos
          end
        end
      done;
      if !best < 0 then raise (Sparse.Singular k);
      if !best <> k then begin
        let tmp = row_of_pos.(k) in
        row_of_pos.(k) <- row_of_pos.(!best);
        row_of_pos.(!best) <- tmp
      end;
      let pivot_row = rows.(row_of_pos.(k)) in
      u_rows.(k) <- pivot_row;
      let pivot = snd pivot_row.(0) in
      for pos = k + 1 to n - 1 do
        let ri = row_of_pos.(pos) in
        let row = rows.(ri) in
        if Array.length row > 0 && fst row.(0) = k then begin
          let factor = snd row.(0) /. pivot in
          let pattern = ref [] in
          Array.iter
            (fun (j, v) ->
              if j > k then begin
                work.(j) <- v;
                touched.(j) <- true;
                pattern := j :: !pattern
              end)
            row;
          Array.iter
            (fun (j, v) ->
              if j > k then begin
                if not touched.(j) then begin
                  touched.(j) <- true;
                  work.(j) <- 0.0;
                  pattern := j :: !pattern
                end;
                work.(j) <- work.(j) -. (factor *. v)
              end)
            pivot_row;
          let cols = List.sort Int.compare !pattern in
          let out = ref [] in
          List.iter
            (fun j ->
              if work.(j) <> 0.0 then out := (j, work.(j)) :: !out;
              touched.(j) <- false)
            cols;
          rows.(ri) <- Array.of_list (List.rev !out);
          l_phys.(ri) <- (k, factor) :: l_phys.(ri)
        end
      done
    done;
    let l_rows = Array.map (fun ri -> Array.of_list (List.rev l_phys.(ri))) row_of_pos in
    let pivot_min = ref Float.infinity in
    let pivot_max = ref 0.0 in
    let max_u = ref 0.0 in
    Array.iteri
      (fun k row ->
        Array.iter
          (fun (j, v) ->
            let mag = Float.abs v in
            max_u := Float.max !max_u mag;
            if j = k then begin
              pivot_min := Float.min !pivot_min mag;
              pivot_max := Float.max !pivot_max mag
            end)
          row)
      u_rows;
    let growth = if max_a > 0.0 then !max_u /. max_a else 1.0 in
    let pivot_min = if n = 0 then 0.0 else !pivot_min in
    let health =
      {
        Lu.dim = n;
        pivot_min;
        pivot_max = !pivot_max;
        growth;
        rcond =
          (if n = 0 then 1.0
           else if !pivot_max > 0.0 && Float.is_finite growth then
             pivot_min /. !pivot_max /. Float.max 1.0 growth
           else 0.0);
      }
    in
    (row_of_pos, l_rows, u_rows, health)

  let solve (perm, l_rows, u_rows) b =
    let n = Array.length perm in
    let x = Array.init n (fun pos -> b.(perm.(pos))) in
    for i = 0 to n - 1 do
      let acc = ref x.(i) in
      Array.iter (fun (j, v) -> acc := !acc -. (v *. x.(j))) l_rows.(i);
      x.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let row = u_rows.(i) in
      let acc = ref x.(i) in
      let diag = ref 0.0 in
      Array.iter
        (fun (j, v) -> if j = i then diag := v else acc := !acc -. (v *. x.(j)))
        row;
      x.(i) <- !acc /. !diag
    done;
    x
end

(* Random sparse matrices built to stress the pivot choice: entries drawn
   mostly from a few equal magnitudes (so pivot ties are common), NaN
   entries, an optional emptied row and column (structurally singular),
   and a usually present diagonal so that about a third of the draws
   factor; the rest must fail at the same column. *)
let prop_sparse_factor_matches_reference =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let index = int_range 0 (n - 1) in
      let value =
        frequency
          [ (3, oneofl [ 1.0; -1.0; 2.0; -2.0; 0.5; -0.5 ]); (1, float_range (-3.0) 3.0) ]
      in
      let* entries = list_size (int_range 0 (4 * n)) (triple index index value) in
      (* One NaN poisons every row it is eliminated into, so at most one. *)
      let* nan = option ~ratio:0.3 (map2 (fun i j -> (i, j, Float.nan)) index index) in
      let* diag =
        option ~ratio:0.75
          (array_size (return n) (oneofl [ 1.0; -1.0; 2.0; -2.0; 0.5; -0.5 ]))
      in
      let emptied = frequency [ (3, return (-1)); (1, int_range 0 (n - 1)) ] in
      let* empty_row = emptied and* empty_col = emptied in
      let* rhs = array_size (return n) (float_range (-5.0) 5.0) in
      return (n, Option.to_list nan @ entries, diag, empty_row, empty_col, rhs))
  in
  let print (n, entries, diag, er, ec, _) =
    Printf.sprintf "n=%d empty_row=%d empty_col=%d diag=%s entries=[%s]" n er ec
      (match diag with
      | None -> "none"
      | Some d -> String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") d)))
      (String.concat "; "
         (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%h)" i j v) entries))
  in
  QCheck2.Test.make ~name:"bucketed sparse LU ≡ row-scanning reference, bit for bit"
    ~count:1000 ~print gen (fun (n, entries, diag, er, ec, rhs) ->
      let diag =
        match diag with
        | None -> []
        | Some d -> List.init n (fun i -> (i, i, d.(i)))
      in
      let entries =
        List.filter (fun (i, j, _) -> i <> er && j <> ec) (diag @ entries)
      in
      let m = Sparse.of_entries n entries in
      let expect =
        match Ref_sparse.factor (Ref_sparse.rows_of m) with
        | exception Sparse.Singular k -> Error k
        | perm, l, u, h ->
          let lu_nnz rows = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows in
          Ok
            ( (perm, bits_rows l, bits_rows u),
              lu_nnz l + lu_nnz u - Sparse.nnz m,
              health_bits h,
              bits_array (Ref_sparse.solve (perm, l, u) rhs) )
      in
      let got =
        match Sparse.factor m with
        | exception Sparse.Singular k -> Error k
        | f ->
          let perm, l, u = Sparse.factors f in
          Ok
            ( (perm, bits_rows l, bits_rows u),
              Sparse.fill_in f,
              health_bits (Sparse.health f),
              bits_array (Sparse.solve f rhs) )
      in
      got = expect)

module Ref_lu = struct
  type t = { lu : Matrix.t; perm : int array; sign : float; health : Lu.health }

  let no_health =
    { Lu.dim = 0; pivot_min = 0.0; pivot_max = 0.0; growth = 1.0; rcond = 0.0 }
  let size f = Array.length f.perm

  let decompose a =
    let n = Matrix.rows a in
    let lu = Matrix.copy a in
    let perm = Array.init n (fun i -> i) in
    let sign = ref 1.0 in
    for k = 0 to n - 1 do
      let pivot_row = ref k in
      let pivot_mag = ref (Float.abs (Matrix.get lu k k)) in
      for i = k + 1 to n - 1 do
        let mag = Float.abs (Matrix.get lu i k) in
        if mag > !pivot_mag then begin
          pivot_mag := mag;
          pivot_row := i
        end
      done;
      if !pivot_mag = 0.0 then raise (Lu.Singular k);
      if !pivot_row <> k then begin
        for j = 0 to n - 1 do
          let tmp = Matrix.get lu k j in
          Matrix.set lu k j (Matrix.get lu !pivot_row j);
          Matrix.set lu !pivot_row j tmp
        done;
        let tmp = perm.(k) in
        perm.(k) <- perm.(!pivot_row);
        perm.(!pivot_row) <- tmp;
        sign := -. !sign
      end;
      let pivot = Matrix.get lu k k in
      for i = k + 1 to n - 1 do
        let factor = Matrix.get lu i k /. pivot in
        Matrix.set lu i k factor;
        if factor <> 0.0 then
          for j = k + 1 to n - 1 do
            Matrix.set lu i j (Matrix.get lu i j -. (factor *. Matrix.get lu k j))
          done
      done
    done;
    { lu; perm; sign = !sign; health = no_health }

  let solve f b =
    let n = size f in
    let x = Array.init n (fun i -> b.(f.perm.(i))) in
    for i = 1 to n - 1 do
      let acc = ref x.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (Matrix.get f.lu i j *. x.(j))
      done;
      x.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (Matrix.get f.lu i j *. x.(j))
      done;
      x.(i) <- !acc /. Matrix.get f.lu i i
    done;
    x

  let solve_transpose f b =
    let n = size f in
    let y = Array.copy b in
    for i = 0 to n - 1 do
      let acc = ref y.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (Matrix.get f.lu j i *. y.(j))
      done;
      y.(i) <- !acc /. Matrix.get f.lu i i
    done;
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (Matrix.get f.lu j i *. y.(j))
      done;
      y.(i) <- !acc
    done;
    let x = Array.make n 0.0 in
    for i = 0 to n - 1 do
      x.(f.perm.(i)) <- y.(i)
    done;
    x

  let estimate_rcond ~anorm f =
    let n = size f in
    if n = 0 then 1.0
    else if anorm <= 0.0 || not (Float.is_finite anorm) then 0.0
    else begin
      let x = Array.make n (1.0 /. float_of_int n) in
      let est = ref 0.0 in
      let continue = ref true in
      let iter = ref 0 in
      while !continue && !iter < 5 do
        incr iter;
        let y = solve f x in
        let e = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 y in
        if not (Float.is_finite e) then begin
          est := Float.infinity;
          continue := false
        end
        else if !iter > 1 && e <= !est then continue := false
        else begin
          est := e;
          let xi = Array.map (fun v -> if v >= 0.0 then 1.0 else -1.0) y in
          let z = solve_transpose f xi in
          let j = ref 0 in
          let zx = ref 0.0 in
          Array.iteri
            (fun i v ->
              zx := !zx +. (v *. x.(i));
              if Float.abs v > Float.abs z.(!j) then j := i)
            z;
          if (not (Float.is_finite z.(!j))) || Float.abs z.(!j) <= Float.abs !zx then
            continue := false
          else begin
            Array.fill x 0 n 0.0;
            x.(!j) <- 1.0
          end
        end
      done;
      if !est = 0.0 then 1.0
      else
        let r = 1.0 /. (anorm *. !est) in
        if Float.is_finite r then Float.min r 1.0 else 0.0
    end

  let factor a =
    let n = Matrix.rows a in
    let max_a = ref 0.0 and anorm = ref 0.0 in
    for j = 0 to n - 1 do
      let col_sum = ref 0.0 in
      for i = 0 to n - 1 do
        let mag = Float.abs (Matrix.get a i j) in
        max_a := Float.max !max_a mag;
        col_sum := !col_sum +. mag
      done;
      anorm := Float.max !anorm !col_sum
    done;
    let f = decompose a in
    let pivot_min = ref Float.infinity in
    let pivot_max = ref 0.0 in
    let max_u = ref 0.0 in
    for i = 0 to n - 1 do
      let d = Float.abs (Matrix.get f.lu i i) in
      pivot_min := Float.min !pivot_min d;
      pivot_max := Float.max !pivot_max d;
      for j = i to n - 1 do
        max_u := Float.max !max_u (Float.abs (Matrix.get f.lu i j))
      done
    done;
    let health =
      {
        Lu.dim = n;
        pivot_min = (if n = 0 then 0.0 else !pivot_min);
        pivot_max = !pivot_max;
        growth = (if !max_a > 0.0 then !max_u /. !max_a else 1.0);
        rcond = estimate_rcond ~anorm:!anorm f;
      }
    in
    { f with health }

  let det f =
    let d = ref f.sign in
    for i = 0 to size f - 1 do
      d := !d *. Matrix.get f.lu i i
    done;
    !d

  let inverse f =
    let n = size f in
    let id = Matrix.identity n and out = Matrix.create n n in
    for j = 0 to n - 1 do
      let x = solve f (Matrix.column id j) in
      for i = 0 to n - 1 do
        Matrix.set out i j x.(i)
      done
    done;
    out

  let solve_dense a b = solve (decompose a) b
end

(* Random dense systems with frequent equal-magnitude pivot candidates,
   plus singular shapes: a repeated row, a zero column, a zero row. *)
let prop_lu_matches_reference =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let value =
        frequency
          [
            (4, oneofl [ 1.0; -1.0; 2.0; -2.0; 0.0 ]);
            (4, float_range (-1.0) 1.0);
          ]
      in
      let* entries = array_size (return (n * n)) value in
      let* rhs = array_size (return n) (float_range (-5.0) 5.0) in
      let* kind = int_range 0 3 and* i = int_range 0 (n - 1) and* j = int_range 0 (n - 1) in
      return (n, entries, rhs, kind, i, j))
  in
  let print (n, entries, _, kind, i, j) =
    Printf.sprintf "n=%d kind=%d i=%d j=%d entries=[%s]" n kind i j
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") entries)))
  in
  QCheck2.Test.make ~name:"flat dense LU ≡ Matrix.get reference, bit for bit" ~count:1000
    ~print gen (fun (n, entries, rhs, kind, i, j) ->
      let a =
        Matrix.init n n (fun r c ->
            match kind with
            | 1 when r = j && i <> j -> entries.((i * n) + c)
            | 2 when c = j -> 0.0
            | 3 when r = j -> 0.0
            | _ -> entries.((r * n) + c))
      in
      let matrix_bits m = Array.map bits_array (Matrix.to_arrays m) in
      let expect =
        match Ref_lu.factor a with
        | exception Lu.Singular k -> Error k
        | f ->
          Ok
            ( bits_array (Ref_lu.solve f rhs),
              bits_array (Ref_lu.solve_transpose f rhs),
              bits (Ref_lu.det f),
              matrix_bits (Ref_lu.inverse f),
              health_bits f.Ref_lu.health )
      in
      let got =
        match Lu.factor a with
        | exception Lu.Singular k -> Error k
        | f ->
          Ok
            ( bits_array (Lu.solve f rhs),
              bits_array (Lu.solve_transpose f rhs),
              bits (Lu.det f),
              matrix_bits (Lu.inverse f),
              health_bits (Lu.health f) )
      in
      let one_shot solve =
        match solve a rhs with
        | x -> Ok (bits_array x)
        | exception Lu.Singular k -> Error k
      in
      got = expect && one_shot Lu.solve_dense = one_shot Ref_lu.solve_dense)

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
        @ props
            [ prop_lu_residual; prop_lu_transpose_consistent; prop_lu_matches_reference ] );
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
        @ props
            [
              prop_sparse_matches_dense;
              prop_sparse_circuit_matrices;
              prop_sparse_factor_matches_reference;
            ] );
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
