type t = Complex.t = { re : float; im : float }

let zero = Complex.zero
let one = Complex.one
let i = Complex.i
let make re im = { re; im }
let of_float re = { re; im = 0.0 }
let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let div = Complex.div
let neg = Complex.neg
let inv = Complex.inv
let conj = Complex.conj
let scale c z = { re = c *. z.re; im = c *. z.im }
let norm = Complex.norm
let arg = Complex.arg
let sqrt = Complex.sqrt
let exp = Complex.exp

(* Complex values kept interleaved in float arrays, real part at [i] and
   imaginary part at [i + 1].  Operands and results are addressed by
   array and index rather than passed as floats, so a call from another
   module boxes nothing.  Each spells out its boxed counterpart operation
   for operation, so the bits are the same. *)

let interleave zs =
  let a = Array.make (2 * Array.length zs) 0.0 in
  Array.iteri
    (fun i z ->
      a.(2 * i) <- z.re;
      a.((2 * i) + 1) <- z.im)
    zs;
  a

let deinterleave a =
  Array.init (Array.length a / 2) (fun i -> make a.(2 * i) a.((2 * i) + 1))

let div_into dst d x i y j =
  (* [Complex.div]. *)
  let xre = x.(i) and xim = x.(i + 1) and yre = y.(j) and yim = y.(j + 1) in
  if Float.abs yre >= Float.abs yim then begin
    let r = yim /. yre in
    let den = yre +. (r *. yim) in
    dst.(d) <- (xre +. (r *. xim)) /. den;
    dst.(d + 1) <- (xim -. (r *. xre)) /. den
  end
  else begin
    let r = yre /. yim in
    let den = yim +. (r *. yre) in
    dst.(d) <- ((r *. xre) +. xim) /. den;
    dst.(d + 1) <- ((r *. xim) -. xre) /. den
  end

let pow_int_into dst d z i n =
  (* Repeated squaring keeps integer powers exact-ish for small n: the
     accumulator takes the base on each set bit, then the base squares. *)
  let are = ref 1.0 and aim = ref 0.0 in
  let bre = ref z.(i) and bim = ref z.(i + 1) and n = ref n in
  while !n > 0 do
    if !n land 1 = 1 then begin
      let re = (!are *. !bre) -. (!aim *. !bim) in
      aim := (!are *. !bim) +. (!aim *. !bre);
      are := re
    end;
    n := !n asr 1;
    if !n > 0 then begin
      let re = (!bre *. !bre) -. (!bim *. !bim) in
      bim := (!bre *. !bim) +. (!bim *. !bre);
      bre := re
    end
  done;
  dst.(d) <- !are;
  dst.(d + 1) <- !aim

let pow_int z n =
  if n < 0 then Complex.inv (Complex.pow z (of_float (float_of_int (-n))))
  else begin
    let out = [| z.re; z.im |] in
    pow_int_into out 0 out 0 n;
    { re = out.(0); im = out.(1) }
  end

let is_real ?(tol = 1e-9) z =
  Float.abs z.im <= tol *. Float.max 1.0 (norm z)

let close ?(tol = 1e-9) a b = norm (sub a b) <= tol *. Float.max 1.0 (norm a)

let pp ppf z =
  if z.im >= 0.0 then Format.fprintf ppf "(%g + %gi)" z.re z.im
  else Format.fprintf ppf "(%g - %gi)" z.re (-.z.im)
