type t = { nrows : int; ncols : int; data : Cx.t array }

exception Singular of int

let create nrows ncols =
  if nrows < 0 || ncols < 0 then invalid_arg "Cmatrix.create: negative size";
  { nrows; ncols; data = Array.make (nrows * ncols) Cx.zero }

let rows m = m.nrows
let cols m = m.ncols

let get m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Cmatrix.get: index out of bounds";
  m.data.((i * m.ncols) + j)

let set m i j x =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Cmatrix.set: index out of bounds";
  m.data.((i * m.ncols) + j) <- x

let add_entry m i j x = set m i j (Cx.add (get m i j) x)

let init nrows ncols f =
  let m = create nrows ncols in
  for i = 0 to nrows - 1 do
    for j = 0 to ncols - 1 do
      m.data.((i * ncols) + j) <- f i j
    done
  done;
  m

let of_real r =
  init (Matrix.rows r) (Matrix.cols r) (fun i j -> Cx.of_float (Matrix.get r i j))

let combine g s c =
  if Matrix.rows g <> Matrix.rows c || Matrix.cols g <> Matrix.cols c then
    invalid_arg "Cmatrix.combine: shape mismatch";
  init (Matrix.rows g) (Matrix.cols g) (fun i j ->
      Cx.add (Cx.of_float (Matrix.get g i j)) (Cx.mul s (Cx.of_float (Matrix.get c i j))))

let mul_vec m v =
  if Array.length v <> m.ncols then invalid_arg "Cmatrix.mul_vec: size mismatch";
  Array.init m.nrows (fun i ->
      let acc = ref Cx.zero in
      for j = 0 to m.ncols - 1 do
        acc := Cx.add !acc (Cx.mul m.data.((i * m.ncols) + j) v.(j))
      done;
      !acc)

(* Gaussian elimination with partial pivoting on interleaved storage
   (see [Cx.div_into]): entry (i, j) at [a.(2(i·n + j))], real part first.
   Entries below the diagonal are never read once their column is
   eliminated, so they are neither updated nor swapped. *)
let solve_inplace n a x =
  let re i j = 2 * ((i * n) + j) in
  let f = [| 0.0; 0.0 |] in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    let pivot_mag = ref (Float.hypot a.(re k k) a.(re k k + 1)) in
    for i = k + 1 to n - 1 do
      let mag = Float.hypot a.(re i k) a.(re i k + 1) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if !pivot_mag = 0.0 then raise (Singular k);
    let p = !pivot_row in
    if p <> k then begin
      for c = re k k to re k (n - 1) + 1 do
        let o = c + (2 * n * (p - k)) in
        let tmp = a.(c) in
        a.(c) <- a.(o);
        a.(o) <- tmp
      done;
      for c = 2 * k to (2 * k) + 1 do
        let o = c + (2 * (p - k)) in
        let tmp = x.(c) in
        x.(c) <- x.(o);
        x.(o) <- tmp
      done
    end;
    for i = k + 1 to n - 1 do
      Cx.div_into f 0 a (re i k) a (re k k);
      let fre = f.(0) and fim = f.(1) in
      if fre <> 0.0 || fim <> 0.0 then begin
        for j = k + 1 to n - 1 do
          let bre = a.(re k j) and bim = a.(re k j + 1) in
          let e = re i j in
          a.(e) <- a.(e) -. ((fre *. bre) -. (fim *. bim));
          a.(e + 1) <- a.(e + 1) -. ((fre *. bim) +. (fim *. bre))
        done;
        let bre = x.(2 * k) and bim = x.((2 * k) + 1) in
        x.(2 * i) <- x.(2 * i) -. ((fre *. bre) -. (fim *. bim));
        x.((2 * i) + 1) <- x.((2 * i) + 1) -. ((fre *. bim) +. (fim *. bre))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let acc_re = ref x.(2 * i) and acc_im = ref x.((2 * i) + 1) in
    for j = i + 1 to n - 1 do
      let are = a.(re i j) and aim = a.(re i j + 1) in
      let xre = x.(2 * j) and xim = x.((2 * j) + 1) in
      acc_re := !acc_re -. ((are *. xre) -. (aim *. xim));
      acc_im := !acc_im -. ((are *. xim) +. (aim *. xre))
    done;
    x.(2 * i) <- !acc_re;
    x.((2 * i) + 1) <- !acc_im;
    Cx.div_into x (2 * i) x (2 * i) a (re i i)
  done

let solve m b =
  let n = m.nrows in
  if m.ncols <> n then invalid_arg "Cmatrix.solve: matrix not square";
  if Array.length b <> n then invalid_arg "Cmatrix.solve: size mismatch";
  let a = Cx.interleave m.data and x = Cx.interleave b in
  solve_inplace n a x;
  Cx.deinterleave x

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.nrows - 1 do
    Format.fprintf ppf "@[<h>[";
    for j = 0 to m.ncols - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Cx.pp ppf (get m i j)
    done;
    Format.fprintf ppf "]@]";
    if i < m.nrows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

(* Taxonomy bridge (see Lu): complex eliminations that find no pivot are
   the same failure class as real ones. *)
let () =
  Awesym_error.register (function
    | Singular k ->
        Some
          (Awesym_error.make Singular_system ~where:"cmatrix.solve"
             ~context:[ ("column", string_of_int k) ]
             (Printf.sprintf
                "no usable pivot at elimination column %d of the complex \
                 system"
                k))
    | _ -> None)
