module Cx = Numeric.Cx
module Poly = Numeric.Poly

type t = { poles : Cx.t array; residues : Cx.t array; direct : float }

let make ?(direct = 0.0) ~poles ~residues () =
  if Array.length poles <> Array.length residues then
    invalid_arg "Rom.make: poles/residues length mismatch";
  { poles; residues; direct }

let order m = Array.length m.poles

let transfer m s =
  let acc = ref (Cx.of_float m.direct) in
  Array.iteri
    (fun i p -> acc := Cx.add !acc (Cx.div m.residues.(i) (Cx.sub s p)))
    m.poles;
  !acc

let transfer_derivative m s =
  let acc = ref Cx.zero in
  Array.iteri
    (fun i p ->
      let d = Cx.sub s p in
      acc := Cx.sub !acc (Cx.div m.residues.(i) (Cx.mul d d)))
    m.poles;
  !acc

let at_frequency m f = transfer m (Cx.make 0.0 (2.0 *. Float.pi *. f))

let dc_gain m = (transfer m Cx.zero).Cx.re

let impulse m t =
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      let term = Cx.mul m.residues.(i) (Cx.exp (Cx.scale t p)) in
      acc := !acc +. term.Cx.re)
    m.poles;
  !acc

(* [| d; Re(k₁/p₁); Im(k₁/p₁); Re p₁; Im p₁; … |]: the ratios are
   computed once per model instead of once per instant. *)
type stepper = float array

let stepper m =
  let s = Array.make (1 + (4 * order m)) 0.0 in
  s.(0) <- m.direct;
  Array.iteri
    (fun i (p : Cx.t) ->
      let k = m.residues.(i) and o = 1 + (4 * i) in
      s.(o) <- k.Cx.re;
      s.(o + 1) <- k.Cx.im;
      s.(o + 2) <- p.Cx.re;
      s.(o + 3) <- p.Cx.im;
      Cx.div_into s o s o s (o + 2))
    m.poles;
  s

(* Re((kᵢ/pᵢ)·(e^{pᵢt} − 1)) as [Cx.scale], [Cx.exp], [Cx.sub] and
   [Cx.mul] compute it, minus the product's unused imaginary part (and
   [Cx.sub]'s [e·sin − 0], which is [e·sin] exactly). *)
let[@inline] step_with s t =
  let acc = ref s.(0) in
  for i = 0 to ((Array.length s - 1) / 4) - 1 do
    let o = 1 + (4 * i) in
    let xre = t *. s.(o + 2) and xim = t *. s.(o + 3) in
    let e = Float.exp xre in
    let wre = (e *. Float.cos xim) -. 1.0 and wim = e *. Float.sin xim in
    acc := !acc +. ((s.(o) *. wre) -. (s.(o + 1) *. wim))
  done;
  !acc

let step m t = step_with (stepper m) t

(* y_ramp(t) = (1/T)·∫₀^min(t,T) y_step(t−τ) dτ with
   y_step(t) = d + Σ (kᵢ/pᵢ)(e^{pᵢt} − 1):
   ∫ gives d·m + Σ (kᵢ/pᵢ)( e^{pᵢt}(1 − e^{−pᵢm})/pᵢ − m ), m = min(t,T). *)
let ramp rom ~rise t =
  if rise <= 0.0 then invalid_arg "Rom.ramp: rise must be > 0";
  if t <= 0.0 then 0.0
  else begin
    let m_int = Float.min t rise in
    let acc = ref (rom.direct *. m_int) in
    Array.iteri
      (fun i p ->
        let ratio = Cx.div rom.residues.(i) p in
        let ept = Cx.exp (Cx.scale t p) in
        let tail = Cx.sub Cx.one (Cx.exp (Cx.scale (-.m_int) p)) in
        let term =
          Cx.sub (Cx.div (Cx.mul ept tail) p) (Cx.of_float m_int)
        in
        acc := !acc +. (Cx.mul ratio term).Cx.re)
      rom.poles;
    !acc /. rise
  end

let moments_of_parts ~direct ~poles ~residues n =
  let w = [| 0.0; 0.0 |] in
  let out = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* Re Σ kᵢ/pᵢ^{k+1}, summed from zero as [Cx.add] would. *)
    let acc = ref 0.0 in
    for i = 0 to (Array.length poles / 2) - 1 do
      Cx.pow_int_into w 0 poles (2 * i) (k + 1);
      Cx.div_into w 0 residues (2 * i) w 0;
      acc := !acc +. w.(0)
    done;
    let base = -. !acc in
    out.(k) <- (if k = 0 then base +. direct else base)
  done;
  out

let moments m n =
  moments_of_parts ~direct:m.direct ~poles:(Cx.interleave m.poles)
    ~residues:(Cx.interleave m.residues) n

(* N(s) = d·Π(s−pᵢ) + Σᵢ kᵢ·Π_{j≠i}(s−pⱼ), expanded over ℂ then realified
   (imaginary parts cancel for conjugate-symmetric models). *)
let numerator m =
  let q = order m in
  let cpoly_mul a b =
    let out = Array.make (Array.length a + Array.length b - 1) Cx.zero in
    Array.iteri
      (fun i ai ->
        Array.iteri
          (fun j bj -> out.(i + j) <- Cx.add out.(i + j) (Cx.mul ai bj))
          b)
      a;
    out
  in
  let linear p = [| Cx.neg p; Cx.one |] in
  let full =
    Array.fold_left (fun acc p -> cpoly_mul acc (linear p)) [| Cx.one |] m.poles
  in
  let acc = ref (Array.map (Cx.scale m.direct) full) in
  for i = 0 to q - 1 do
    let rest = ref [| Cx.one |] in
    for j = 0 to q - 1 do
      if j <> i then rest := cpoly_mul !rest (linear m.poles.(j))
    done;
    let term = Array.map (Cx.mul m.residues.(i)) !rest in
    acc :=
      Array.init
        (Int.max (Array.length !acc) (Array.length term))
        (fun k ->
          let get a = if k < Array.length a then a.(k) else Cx.zero in
          Cx.add (get !acc) (get term))
  done;
  Poly.of_coeffs (Array.map (fun (z : Cx.t) -> z.Cx.re) !acc)

let zeros m =
  let n = numerator m in
  if Poly.degree n < 1 then [||] else Numeric.Roots.of_poly n

let is_stable m = Array.for_all (fun (p : Cx.t) -> p.Cx.re < 0.0) m.poles

let dominant_pole m =
  if order m = 0 then failwith "Rom.dominant_pole: empty model";
  Array.fold_left
    (fun best p -> if Cx.norm p < Cx.norm best then p else best)
    m.poles.(0) m.poles

let time_constant m =
  let p = dominant_pole m in
  let re = Float.abs p.Cx.re in
  if re = 0.0 then Float.infinity else 1.0 /. re

let pp ppf m =
  Format.fprintf ppf "@[<v>order-%d model%s:@," (order m)
    (if m.direct <> 0.0 then Printf.sprintf " (direct %g)" m.direct else "");
  Array.iteri
    (fun i p ->
      Format.fprintf ppf "  pole %a  residue %a@," Cx.pp p Cx.pp m.residues.(i))
    m.poles;
  Format.fprintf ppf "@]"
