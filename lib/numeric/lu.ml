exception Singular of int

type health = {
  dim : int;
  pivot_min : float;
  pivot_max : float;
  growth : float;
  rcond : float;
}

(* Factors are stored packed in one flat row-major array of [n * n]
   floats: the strict lower triangle holds L (unit diagonal implied), the
   upper triangle holds U, entry (i, j) at [i * n + j].  [perm] maps
   factored row index -> original row index of the right-hand side. *)
type t = { lu : float array; perm : int array; sign : float; health : health }

let size f = Array.length f.perm
let health f = f.health

(* What [solve_dense] leaves out: a one-shot solve reads no health. *)
let no_health =
  { dim = 0; pivot_min = 0.0; pivot_max = 0.0; growth = 1.0; rcond = 0.0 }

(* Gaussian elimination with partial pivoting, in place on [lu], the flat
   row-major copy of an [n × n] matrix; the factors' health is left to
   [factor]. *)
let decompose n lu =
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude entry in column k. *)
    let pivot_row = ref k in
    let pivot_mag = ref (Float.abs lu.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let mag = Float.abs lu.((i * n) + k) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if !pivot_mag = 0.0 then raise (Singular k);
    if !pivot_row <> k then begin
      let rk = k * n and rp = !pivot_row * n in
      for j = 0 to n - 1 do
        let tmp = lu.(rk + j) in
        lu.(rk + j) <- lu.(rp + j);
        lu.(rp + j) <- tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tmp;
      sign := -. !sign
    end;
    let rk = k * n in
    let pivot = lu.(rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let factor = lu.(ri + k) /. pivot in
      lu.(ri + k) <- factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          lu.(ri + j) <- lu.(ri + j) -. (factor *. lu.(rk + j))
        done
    done
  done;
  if !Obs.enabled then begin
    Obs.Metrics.incr "lu.factor.count";
    Obs.Metrics.observe "lu.factor.dim" (float_of_int n)
  end;
  { lu; perm; sign = !sign; health = no_health }

let square_dim a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Lu.factor: matrix not square";
  n

let solve f b =
  let n = size f in
  if Array.length b <> n then invalid_arg "Lu.solve: size mismatch";
  if !Obs.enabled then Obs.Metrics.incr "lu.solve.count";
  let lu = f.lu in
  let x = Array.init n (fun i -> b.(f.perm.(i))) in
  (* Forward substitution with unit lower triangle. *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lu.(ri + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Back substitution with upper triangle. *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (lu.(ri + j) *. x.(j))
    done;
    x.(i) <- !acc /. lu.(ri + i)
  done;
  x

(* aᵀ = (P⁻¹ L U)ᵀ = Uᵀ Lᵀ P⁻ᵀ, so solve Uᵀ y = b, then Lᵀ z = y, then undo
   the permutation: x.(perm.(i)) = z.(i). *)
let solve_transpose f b =
  let n = size f in
  if Array.length b <> n then invalid_arg "Lu.solve_transpose: size mismatch";
  let lu = f.lu in
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lu.((j * n) + i) *. y.(j))
    done;
    y.(i) <- !acc /. lu.((i * n) + i)
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (lu.((j * n) + i) *. y.(j))
    done;
    y.(i) <- !acc
  done;
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    x.(f.perm.(i)) <- y.(i)
  done;
  x

(* Hager/Higham 1-norm condition estimation (LINPACK-style): a handful of
   O(n²) triangular solves against the just-computed factors estimate
   ‖A⁻¹‖₁ from below, giving rcond = 1 / (‖A‖₁·‖A⁻¹‖₁) without the O(n³)
   cost of an explicit inverse.  The estimate is a lower bound on the true
   condition number, which is the safe direction for health warnings. *)
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
        (* Overflow in the triangular solve: the matrix is so badly
           conditioned the estimate saturates; report rcond = 0. *)
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
        if
          (not (Float.is_finite z.(!j)))
          || Float.abs z.(!j) <= Float.abs !zx
        then continue := false
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
  let n = square_dim a in
  let lu = Matrix.to_flat a in
  (* Pivot statistics drive the numeric-health reporting upstream: the
     min/max pivot ratio is a cheap condition estimate, element growth
     relative to the input flags unstable eliminations, and the 1-norm of
     the input (max absolute column sum) scales the condition estimate. *)
  let max_a = ref 0.0 and anorm = ref 0.0 in
  for j = 0 to n - 1 do
    let col_sum = ref 0.0 in
    for i = 0 to n - 1 do
      let mag = Float.abs lu.((i * n) + j) in
      max_a := Float.max !max_a mag;
      col_sum := !col_sum +. mag
    done;
    anorm := Float.max !anorm !col_sum
  done;
  let f = decompose n lu in
  let pivot_min = ref Float.infinity in
  let pivot_max = ref 0.0 in
  let max_u = ref 0.0 in
  for i = 0 to n - 1 do
    let ri = i * n in
    let d = Float.abs lu.(ri + i) in
    pivot_min := Float.min !pivot_min d;
    pivot_max := Float.max !pivot_max d;
    for j = i to n - 1 do
      max_u := Float.max !max_u (Float.abs lu.(ri + j))
    done
  done;
  let health =
    {
      dim = n;
      pivot_min = (if n = 0 then 0.0 else !pivot_min);
      pivot_max = !pivot_max;
      growth = (if !max_a > 0.0 then !max_u /. !max_a else 1.0);
      rcond = estimate_rcond ~anorm:!anorm f;
    }
  in
  { f with health }

let solve_matrix f b =
  let n = size f in
  if Matrix.rows b <> n then invalid_arg "Lu.solve_matrix: size mismatch";
  let out = Matrix.create n (Matrix.cols b) in
  for j = 0 to Matrix.cols b - 1 do
    let x = solve f (Matrix.column b j) in
    for i = 0 to n - 1 do
      Matrix.set out i j x.(i)
    done
  done;
  out

let det f =
  let n = size f in
  let d = ref f.sign in
  for i = 0 to n - 1 do
    d := !d *. f.lu.((i * n) + i)
  done;
  !d

let inverse f = solve_matrix f (Matrix.identity (size f))

let solve_dense a b = solve (decompose (square_dim a) (Matrix.to_flat a)) b

(* Taxonomy bridge: existing callers (and tests) match [Singular]
   directly, so the exception stays; the classifier lets policy layers
   fold it into the shared taxonomy without depending on this module. *)
let () =
  Awesym_error.register (function
    | Singular k ->
        Some
          (Awesym_error.make Singular_system ~where:"lu.factor"
             ~context:[ ("column", string_of_int k) ]
             (Printf.sprintf
                "no usable pivot at elimination column %d: matrix is \
                 numerically singular"
                k))
    | _ -> None)
