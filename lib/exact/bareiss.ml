module Mpoly = Symbolic.Mpoly

(* One-step fraction-free elimination.  After step k every entry is
   divisible by the previous pivot, so [div_exact] succeeds; with float
   coefficients the division is exact up to rounding. *)
let det m =
  let n = Array.length m in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Bareiss.det: matrix not square")
    m;
  if n = 0 then Mpoly.one
  else begin
    let a = Array.map Array.copy m in
    let sign = ref 1.0 in
    let prev_pivot = ref Mpoly.one in
    let rec eliminate k =
      if k >= n - 1 then ()
      else begin
        (* Structural pivoting: any row with a non-zero entry in column k;
           prefer the sparsest pivot polynomial to limit term growth. *)
        let best = ref (-1) in
        for i = k to n - 1 do
          if not (Mpoly.is_zero a.(i).(k)) then
            if !best = -1
               || Mpoly.num_terms a.(i).(k) < Mpoly.num_terms a.(!best).(k)
            then best := i
        done;
        if !best = -1 then raise Exit;
        if !best <> k then begin
          let tmp = a.(k) in
          a.(k) <- a.(!best);
          a.(!best) <- tmp;
          sign := -. !sign
        end;
        let pivot = a.(k).(k) in
        for i = k + 1 to n - 1 do
          for j = k + 1 to n - 1 do
            let num =
              Mpoly.sub
                (Mpoly.mul pivot a.(i).(j))
                (Mpoly.mul a.(i).(k) a.(k).(j))
            in
            match Mpoly.div_exact ~tol:1e-13 num !prev_pivot with
            | Some q -> a.(i).(j) <- q
            | None ->
              failwith "Bareiss.det: inexact division (ill-conditioned input)"
          done;
          a.(i).(k) <- Mpoly.zero
        done;
        prev_pivot := pivot;
        eliminate (k + 1)
      end
    in
    match eliminate 0 with
    | () -> Mpoly.scale !sign a.(n - 1).(n - 1)
    | exception Exit -> Mpoly.zero
  end

let solve_cramer a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Bareiss.solve_cramer: size mismatch";
  let d = det a in
  if Mpoly.is_zero d then
    Awesym_error.raise_error Singular_system ~where:"bareiss.solve_cramer"
      "the system matrix has a zero determinant";
  let nums =
    Array.init n (fun i ->
        let ai =
          Array.mapi
            (fun r row ->
              Array.mapi (fun c v -> if c = i then b.(r) else v) row)
            a
        in
        det ai)
  in
  (nums, d)
