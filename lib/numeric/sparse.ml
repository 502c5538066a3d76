(* Rows are sorted (column, value) arrays; the matrix is immutable. *)
type t = { n : int; rows : (int * float) array array }

exception Singular of int

let dims m = m.n
let nnz m = Array.fold_left (fun acc r -> acc + Array.length r) 0 m.rows

let of_entries n entries =
  if n < 0 then invalid_arg "Sparse.of_entries: negative size";
  let accum = Array.init n (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (i, j, v) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Sparse.of_entries: index out of bounds";
      let tbl = accum.(i) in
      Hashtbl.replace tbl j (Option.value (Hashtbl.find_opt tbl j) ~default:0.0 +. v))
    entries;
  let rows =
    Array.map
      (fun tbl ->
        Hashtbl.fold (fun j v acc -> if v = 0.0 then acc else (j, v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> Array.of_list)
      accum
  in
  { n; rows }

let of_dense d =
  let n = Matrix.rows d in
  if Matrix.cols d <> n then invalid_arg "Sparse.of_dense: not square";
  let rows =
    Array.init n (fun i ->
        let out = ref [] in
        for j = n - 1 downto 0 do
          let v = Matrix.get d i j in
          if v <> 0.0 then out := (j, v) :: !out
        done;
        Array.of_list !out)
  in
  { n; rows }

let to_dense m =
  let d = Matrix.create m.n m.n in
  Array.iteri
    (fun i row -> Array.iter (fun (j, v) -> Matrix.set d i j v) row)
    m.rows;
  d

let mul_vec m v =
  if Array.length v <> m.n then invalid_arg "Sparse.mul_vec: size mismatch";
  Array.map
    (fun row ->
      Array.fold_left (fun acc (j, x) -> acc +. (x *. v.(j))) 0.0 row)
    m.rows

(* Factored form: P·A = L·U with L unit-diagonal.  Rows of L and U are kept
   sparse and sorted; [perm.(k)] is the original row placed at pivot
   position k. *)
type factored = {
  n : int;
  perm : int array;
  l_rows : (int * float) array array; (* strictly lower, by pivot position *)
  u_rows : (int * float) array array; (* including the diagonal *)
  a_nnz : int;
  health : Lu.health;
}

let health f = f.health

let fill_in_count f =
  let lu_nnz =
    Array.fold_left (fun acc r -> acc + Array.length r) 0 f.l_rows
    + Array.fold_left (fun acc r -> acc + Array.length r) 0 f.u_rows
  in
  lu_nnz - f.a_nnz

(* Elimination uses a scattered workspace per pivot row: [work] holds the
   current values of the active row, [pattern] its non-zero columns.

   Rows not yet pivoted sit in a bucket keyed by their leading column, so
   step k's pivot search and elimination visit only the rows that carry
   column k, not every remaining row.  A row that elimination empties
   joins no bucket. *)
let factor (m : t) =
  let n = m.n in
  let a_nnz = nnz m in
  let max_a =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) acc row)
      0.0 m.rows
  in
  (* Mutable row table: rows still to be eliminated, as sorted arrays. *)
  let rows = Array.map Array.copy m.rows in
  (* Which physical row currently sits at each elimination position, and
     the inverse map. *)
  let row_of_pos = Array.init n (fun i -> i) in
  let pos_of_row = Array.init n (fun i -> i) in
  let bucket = Array.make n [] in
  for ri = n - 1 downto 0 do
    let row = rows.(ri) in
    if Array.length row > 0 then begin
      let j0 = fst row.(0) in
      bucket.(j0) <- ri :: bucket.(j0)
    end
  done;
  (* Multipliers belong to the physical row: later pivot swaps move the
     whole row, multipliers included, so L is keyed physically and only
     reordered into pivot positions at the end. *)
  let l_phys = Array.make n [] in
  let u_rows = Array.make n [||] in
  let work = Array.make n 0.0 in
  let touched = Array.make n false in
  for k = 0 to n - 1 do
    let carriers = bucket.(k) in
    bucket.(k) <- [];
    (* Partial pivoting: among the rows that carry column k, the largest
       |value|, ties to the earliest position.  A zero or NaN entry never
       compares larger than 0, so it never pivots. *)
    let best = ref (-1) in
    let best_mag = ref 0.0 in
    List.iter
      (fun ri ->
        let mag = Float.abs (snd rows.(ri).(0)) in
        let pos = pos_of_row.(ri) in
        if mag > !best_mag || (!best >= 0 && mag = !best_mag && pos < !best)
        then begin
          best_mag := mag;
          best := pos
        end)
      carriers;
    if !best < 0 then raise (Singular k);
    if !best <> k then begin
      let tmp = row_of_pos.(k) in
      row_of_pos.(k) <- row_of_pos.(!best);
      row_of_pos.(!best) <- tmp;
      pos_of_row.(row_of_pos.(k)) <- k;
      pos_of_row.(tmp) <- !best
    end;
    let pivot_ri = row_of_pos.(k) in
    let pivot_row = rows.(pivot_ri) in
    u_rows.(k) <- pivot_row;
    let pivot = snd pivot_row.(0) in
    (* Eliminate column k from every other row that carries it. *)
    List.iter
      (fun ri ->
        if ri <> pivot_ri then begin
          let row = rows.(ri) in
          let factor = snd row.(0) /. pivot in
          (* Scatter the row (beyond column k). *)
          let pattern = ref [] in
          Array.iter
            (fun (j, v) ->
              if j > k then begin
                work.(j) <- v;
                touched.(j) <- true;
                pattern := j :: !pattern
              end)
            row;
          (* Subtract factor × pivot row. *)
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
          let row = Array.of_list (List.rev !out) in
          rows.(ri) <- row;
          l_phys.(ri) <- (k, factor) :: l_phys.(ri);
          if Array.length row > 0 then begin
            let j0 = fst row.(0) in
            bucket.(j0) <- ri :: bucket.(j0)
          end
        end)
      carriers
  done;
  let l_rows =
    Array.map (fun ri -> Array.of_list (List.rev l_phys.(ri))) row_of_pos
  in
  (* Same pivot/growth statistics as the dense path (see Lu.health): the
     diagonal of U holds the pivots, and every stored U entry bounds the
     elimination's element growth. *)
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
      (* The sparse path has no transpose solve, so instead of the dense
         Hager estimate we report the pivot-ratio/growth proxy — a crude
         but monotone stand-in that flags the same catastrophic cases. *)
      rcond =
        (if n = 0 then 1.0
         else if !pivot_max > 0.0 && Float.is_finite growth then
           pivot_min /. !pivot_max /. Float.max 1.0 growth
         else 0.0);
    }
  in
  let f = { n; perm = row_of_pos; l_rows; u_rows; a_nnz; health } in
  if !Obs.enabled then begin
    Obs.Metrics.incr "sparse.factor.count";
    Obs.Metrics.observe "sparse.factor.dim" (float_of_int n);
    Obs.Metrics.observe "sparse.factor.fill_in" (float_of_int (fill_in_count f))
  end;
  f

let solve f b =
  if Array.length b <> f.n then invalid_arg "Sparse.solve: size mismatch";
  if !Obs.enabled then Obs.Metrics.incr "sparse.solve.count";
  (* Position k's equation is original row perm.(k); the RHS follows the
     same exchange. *)
  let x = Array.init f.n (fun pos -> b.(f.perm.(pos))) in
  for i = 0 to f.n - 1 do
    let acc = ref x.(i) in
    Array.iter (fun (j, v) -> acc := !acc -. (v *. x.(j))) f.l_rows.(i);
    x.(i) <- !acc
  done;
  for i = f.n - 1 downto 0 do
    let row = f.u_rows.(i) in
    let acc = ref x.(i) in
    let diag = ref 0.0 in
    Array.iter
      (fun (j, v) -> if j = i then diag := v else acc := !acc -. (v *. x.(j)))
      row;
    x.(i) <- !acc /. !diag
  done;
  x

let fill_in = fill_in_count
let factors f =
  (Array.copy f.perm, Array.map Array.copy f.l_rows, Array.map Array.copy f.u_rows)

(* Taxonomy bridge (see Lu). *)
let () =
  Awesym_error.register (function
    | Singular k ->
        Some
          (Awesym_error.make Singular_system ~where:"sparse.factor"
             ~context:[ ("column", string_of_int k) ]
             (Printf.sprintf
                "no usable pivot at elimination column %d: sparse matrix is \
                 numerically singular"
                k))
    | _ -> None)
