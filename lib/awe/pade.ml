module Cx = Numeric.Cx
module Matrix = Numeric.Matrix
module Poly = Numeric.Poly

exception Degenerate of string

let moment_scale m =
  let n = Array.length m in
  let j = ref 0 in
  while !j < n && m.(!j) = 0.0 do
    incr j
  done;
  let j = !j in
  if j + 1 >= n || m.(j + 1) = 0.0 then 1.0 else Float.abs (m.(j) /. m.(j + 1))

let scaled_moments alpha m =
  let out = Array.make (Array.length m) 0.0 in
  let factor = ref 1.0 in
  for k = 0 to Array.length m - 1 do
    out.(k) <- m.(k) *. !factor;
    factor := !factor *. alpha
  done;
  out

let char_poly ?(offset = 0) ~order m =
  let q = order in
  if Array.length m < offset + (2 * q) then
    invalid_arg "Pade.char_poly: not enough moments";
  (* Hankel system: Σ_{j<q} a_j·m_{o+k+j} = −m_{o+k+q} for k = 0..q−1; the
     monic polynomial x^q + Σ a_j·x^j annihilates the moment recurrence, and
     its roots are the reciprocal poles. *)
  let h = Matrix.init q q (fun k j -> m.(offset + k + j)) in
  let rhs = Array.init q (fun k -> -.m.(offset + k + q)) in
  let a = Numeric.Lu.solve_dense h rhs in
  Poly.of_coeffs (Array.append a [| 1.0 |])

(* From here on poles and residues travel interleaved in float arrays
   (see [Cx.div_into]), so a fit boxes nothing per pole until it builds
   its [Rom.t]. *)

(* 1 + 0i, never written. *)
let one = [| 1.0; 0.0 |]

(* Vandermonde in x = 1/p: m_k = −Σ k_i·x_i^{k+1}, k = offset.. *)
let residues_of ~offset p m =
  let q = Array.length p / 2 in
  let x = Array.make (2 * q) 0.0 in
  for i = 0 to q - 1 do
    Cx.div_into x (2 * i) one 0 p (2 * i)
  done;
  let v = Array.make (2 * q * q) 0.0 in
  for k = 0 to q - 1 do
    for i = 0 to q - 1 do
      let e = 2 * ((k * q) + i) in
      Cx.pow_int_into v e x (2 * i) (offset + k + 1);
      v.(e) <- -.v.(e);
      v.(e + 1) <- -.v.(e + 1)
    done
  done;
  let res = Array.make (2 * q) 0.0 in
  for k = 0 to q - 1 do
    res.(2 * k) <- m.(offset + k)
  done;
  Numeric.Cmatrix.solve_inplace q v res;
  res

let residues ?(offset = 0) ~poles m =
  if Array.length m < offset + Array.length poles then
    invalid_arg "Pade.residues: not enough moments";
  Cx.deinterleave (residues_of ~offset (Cx.interleave poles) m)

let poles_of_char char =
  (* Roots are reciprocal poles; a zero root would be an infinite pole,
     which the strictly proper part cannot represent — drop it. *)
  let roots = Numeric.Roots.of_poly char in
  let p = Array.make (2 * Array.length roots) 0.0 in
  let q = ref 0 in
  for r = 0 to Array.length roots - 1 do
    let x = roots.(r) in
    if not (Float.hypot x.Cx.re x.Cx.im < 1e-30) then begin
      p.(2 * !q) <- x.Cx.re;
      p.((2 * !q) + 1) <- x.Cx.im;
      Cx.div_into p (2 * !q) one 0 p (2 * !q);
      incr q
    end
  done;
  if !q = Array.length roots then p else Array.sub p 0 (2 * !q)

let direct_for p res m0 =
  (* d = m₀ + Σ kᵢ/pᵢ, the sum's real part taken from zero as [Cx.add]
     builds it. *)
  let w = [| 0.0; 0.0 |] in
  let acc = ref 0.0 in
  for i = 0 to (Array.length p / 2) - 1 do
    Cx.div_into w 0 res (2 * i) p (2 * i);
    acc := !acc +. w.(0)
  done;
  m0 +. !acc

(* A fit is only acceptable if the model reproduces the moments it claims
   to match: near-rank-deficient Hankel systems "succeed" numerically while
   minting junk poles (e.g. a spurious resonance with |Re p| ~ 1e−77 whose
   transfer blows up at its own frequency).  Moments here are scaled, so an
   absolute-ish tolerance is meaningful. *)
let roundtrip_ok ~offset ~direct p res m =
  let n = Int.min (Array.length m) (offset + Array.length p) in
  let back = Rom.moments_of_parts ~direct ~poles:p ~residues:res n in
  let ok = ref true in
  for k = 0 to n - 1 do
    if Float.abs (back.(k) -. m.(k)) > 1e-6 *. Float.max 1.0 (Float.abs m.(k))
    then ok := false
  done;
  !ok

(* Moment-invisible poles are parasites: a pole whose contribution to every
   matched (scaled) moment is below rounding noise is unidentifiable from
   the data — typically a near-imaginary-axis artifact of a rank-deficient
   Hankel solve whose transfer nevertheless explodes at its own resonance.
   Keep only poles that the moments can actually see ([p] itself when
   that is all of them). *)
let visible_poles ~offset p res m =
  let n = Array.length m and q = Array.length p / 2 in
  let kept = Array.make (2 * q) 0.0 and nk = ref 0 in
  for i = 0 to q - 1 do
    let k = Float.hypot res.(2 * i) res.((2 * i) + 1)
    and pole = Float.hypot p.(2 * i) p.((2 * i) + 1) in
    let visible = ref false and j = ref 0 in
    while (not !visible) && offset + !j < n do
      let contribution = k /. (pole ** float_of_int (!j + 1)) in
      visible :=
        contribution > 1e-9 *. Float.max 1e-30 (Float.abs m.(offset + !j));
      incr j
    done;
    if !visible then begin
      kept.(2 * !nk) <- p.(2 * i);
      kept.((2 * !nk) + 1) <- p.((2 * i) + 1);
      incr nk
    end
  done;
  if !nk = q then p else Array.sub kept 0 (2 * !nk)

(* A model in the scaled domain, poles and residues interleaved. *)
type parts = { poles : float array; res : float array; direct : float }

let parts_of ~offset poles res m =
  let direct = if offset = 0 then 0.0 else direct_for poles res m.(0) in
  { poles; res; direct }

(* Fit in the scaled domain.  [offset] = 1 when a direct term is wanted:
   the recurrence and residues then never touch m₀, which d contaminates. *)
let rec fit_scaled ~offset ~order m =
  if order < 1 then raise (Degenerate "no nonsingular Hankel system at any order");
  match char_poly ~offset ~order m with
  | exception Numeric.Lu.Singular _ -> fit_scaled ~offset ~order:(order - 1) m
  | char -> (
    let poles = poles_of_char char in
    if Array.length poles = 0 then fit_scaled ~offset ~order:(order - 1) m
    else
      match residues_of ~offset poles m with
      | exception Numeric.Cmatrix.Singular _ -> fit_scaled ~offset ~order:(order - 1) m
      | res -> (
        let kept = visible_poles ~offset poles res m in
        if Array.length kept = 0 then fit_scaled ~offset ~order:(order - 1) m
        else
          match
            (* Every pole visible: the solve just done had these inputs. *)
            if Array.length kept = Array.length poles then res
            else residues_of ~offset kept m
          with
          | exception Numeric.Cmatrix.Singular _ ->
            fit_scaled ~offset ~order:(order - 1) m
          | res ->
            let f = parts_of ~offset kept res m in
            if roundtrip_ok ~offset ~direct:f.direct f.poles f.res m then f
            else fit_scaled ~offset ~order:(order - 1) m))

let stabilize ~offset f m =
  let q = Array.length f.poles / 2 in
  let stable = ref 0 in
  for i = 0 to q - 1 do
    if f.poles.(2 * i) < 0.0 then incr stable
  done;
  if !stable = q then f
  else if !stable = 0 then
    raise (Degenerate "all poles unstable; cannot stabilize")
  else begin
    let keep = Array.make (2 * !stable) 0.0 and j = ref 0 in
    for i = 0 to q - 1 do
      if f.poles.(2 * i) < 0.0 then begin
        keep.(2 * !j) <- f.poles.(2 * i);
        keep.((2 * !j) + 1) <- f.poles.((2 * i) + 1);
        incr j
      end
    done;
    parts_of ~offset keep (residues_of ~offset keep m) m
  end

let fit ?(enforce_stability = true) ?(with_direct = false) ~order m =
  if order < 1 then invalid_arg "Pade.fit: order must be >= 1";
  let offset = if with_direct then 1 else 0 in
  if Array.length m < (2 * order) + offset then
    invalid_arg "Pade.fit: not enough moments";
  if Array.for_all (fun v -> v = 0.0) m then
    raise (Degenerate "all moments are zero");
  Obs.Span.with_ ~name:"awe.pade.fit" @@ fun () ->
  let alpha = moment_scale m in
  let m_hat = scaled_moments alpha m in
  let f = fit_scaled ~offset ~order m_hat in
  let f = if enforce_stability then stabilize ~offset f m_hat else f in
  let q = Array.length f.poles / 2 in
  if !Obs.enabled then begin
    Obs.Metrics.incr "pade.fit.count";
    Obs.Metrics.observe "pade.fit.order" (float_of_int q);
    if q < order then Obs.Metrics.incr "pade.order_reduction.count"
  end;
  (* Map back from the scaled frequency ŝ = s/α: p = α·p̂, k = α·k̂; the
     direct term is scale invariant. *)
  let unscale a =
    Array.init q (fun i -> Cx.make (alpha *. a.(2 * i)) (alpha *. a.((2 * i) + 1)))
  in
  Rom.make ~direct:f.direct ~poles:(unscale f.poles) ~residues:(unscale f.res) ()

(* Taxonomy bridge: callers (and tests) match [Degenerate] directly; the
   classifier folds it into the shared taxonomy for policy layers (the
   sweep engine retries this kind at a reduced order). *)
let () =
  Awesym_error.register (function
    | Degenerate msg ->
        Some (Awesym_error.make Unstable_pade ~where:"pade.fit" msg)
    | _ -> None)
