type t = { nrows : int; ncols : int; data : float array }

let create nrows ncols =
  if nrows < 0 || ncols < 0 then invalid_arg "Matrix.create: negative size";
  { nrows; ncols; data = Array.make (nrows * ncols) 0.0 }

let rows m = m.nrows
let cols m = m.ncols

let get m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Matrix.get: index out of bounds";
  m.data.((i * m.ncols) + j)

let set m i j x =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Matrix.set: index out of bounds";
  m.data.((i * m.ncols) + j) <- x

let add_entry m i j x =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Matrix.add_entry: index out of bounds";
  let k = (i * m.ncols) + j in
  m.data.(k) <- m.data.(k) +. x

let init nrows ncols f =
  let m = create nrows ncols in
  for i = 0 to nrows - 1 do
    for j = 0 to ncols - 1 do
      m.data.((i * ncols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays a =
  let nrows = Array.length a in
  if nrows = 0 then create 0 0
  else begin
    let ncols = Array.length a.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> ncols then
          invalid_arg "Matrix.of_arrays: ragged rows")
      a;
    init nrows ncols (fun i j -> a.(i).(j))
  end

let to_arrays m =
  Array.init m.nrows (fun i ->
      Array.init m.ncols (fun j -> m.data.((i * m.ncols) + j)))

let to_flat m = Array.copy m.data
let copy m = { m with data = Array.copy m.data }

let transpose m = init m.ncols m.nrows (fun i j -> get m j i)

let same_shape op a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then
    invalid_arg (op ^ ": shape mismatch")

let add a b =
  same_shape "Matrix.add" a b;
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  same_shape "Matrix.sub" a b;
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale c m = { m with data = Array.map (fun x -> c *. x) m.data }

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Matrix.mul: shape mismatch";
  let m = create a.nrows b.ncols in
  for i = 0 to a.nrows - 1 do
    for k = 0 to a.ncols - 1 do
      let aik = a.data.((i * a.ncols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.ncols - 1 do
          let idx = (i * b.ncols) + j in
          m.data.(idx) <- m.data.(idx) +. (aik *. b.data.((k * b.ncols) + j))
        done
    done
  done;
  m

let mul_vec m v =
  if Array.length v <> m.ncols then invalid_arg "Matrix.mul_vec: size mismatch";
  Array.init m.nrows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.ncols - 1 do
        acc := !acc +. (m.data.((i * m.ncols) + j) *. v.(j))
      done;
      !acc)

let mul_vec_transpose m v =
  if Array.length v <> m.nrows then
    invalid_arg "Matrix.mul_vec_transpose: size mismatch";
  let out = Array.make m.ncols 0.0 in
  for i = 0 to m.nrows - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then
      for j = 0 to m.ncols - 1 do
        out.(j) <- out.(j) +. (m.data.((i * m.ncols) + j) *. vi)
      done
  done;
  out

let column m j = Array.init m.nrows (fun i -> get m i j)
let row m i = Array.init m.ncols (fun j -> get m i j)

let map f m = { m with data = Array.map f m.data }

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.nrows - 1 do
    let s = ref 0.0 in
    for j = 0 to m.ncols - 1 do
      s := !s +. Float.abs m.data.((i * m.ncols) + j)
    done;
    if !s > !best then best := !s
  done;
  !best

let equal ?(tol = 1e-12) a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.data b.data

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.nrows - 1 do
    Format.fprintf ppf "@[<h>[";
    for j = 0 to m.ncols - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%g" (get m i j)
    done;
    Format.fprintf ppf "]@]";
    if i < m.nrows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
