module Cx = Numeric.Cx
module Matrix = Numeric.Matrix
module Poly = Numeric.Poly

exception Degenerate of string

let moment_scale m =
  let n = Array.length m in
  let rec first k = if k >= n then None else if m.(k) <> 0.0 then Some k else first (k + 1) in
  match first 0 with
  | None -> 1.0
  | Some j ->
    if j + 1 >= n || m.(j + 1) = 0.0 then 1.0
    else Float.abs (m.(j) /. m.(j + 1))

let scaled_moments alpha m =
  let factor = ref 1.0 in
  Array.map
    (fun v ->
      let out = v *. !factor in
      factor := !factor *. alpha;
      out)
    m

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

let residues ?(offset = 0) ~poles m =
  let q = Array.length poles in
  if Array.length m < offset + q then
    invalid_arg "Pade.residues: not enough moments";
  if q = 0 then [||]
  else begin
    (* Vandermonde in x = 1/p: m_k = −Σ k_i·x_i^{k+1}, k = offset.. *)
    let x = Array.map Cx.inv poles in
    let v =
      Numeric.Cmatrix.init q q (fun k i ->
          Cx.neg (Cx.pow_int x.(i) (offset + k + 1)))
    in
    let rhs = Array.init q (fun k -> Cx.of_float m.(offset + k)) in
    Numeric.Cmatrix.solve v rhs
  end

let poles_of_char char =
  (* Roots are reciprocal poles; a zero root would be an infinite pole,
     which the strictly proper part cannot represent — drop it. *)
  Numeric.Roots.of_poly char
  |> Array.to_list
  |> List.filter_map (fun x -> if Cx.norm x < 1e-30 then None else Some (Cx.inv x))
  |> Array.of_list

let direct_for poles res m0 =
  (* d = m₀ + Σ kᵢ/pᵢ. *)
  let acc = ref Cx.zero in
  Array.iteri (fun i p -> acc := Cx.add !acc (Cx.div res.(i) p)) poles;
  m0 +. !acc.Cx.re

(* A fit is only acceptable if the model reproduces the moments it claims
   to match: near-rank-deficient Hankel systems "succeed" numerically while
   minting junk poles (e.g. a spurious resonance with |Re p| ~ 1e−77 whose
   transfer blows up at its own frequency).  Moments here are scaled, so an
   absolute-ish tolerance is meaningful. *)
let roundtrip_ok ~offset rom m =
  let q = Rom.order rom in
  let n = Int.min (Array.length m) (offset + (2 * q)) in
  let back = Rom.moments rom n in
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
   Keep only poles that the moments can actually see. *)
let visible_poles ~offset poles res m =
  let n = Array.length m in
  let indices = Array.to_list (Array.init (Array.length poles) Fun.id) in
  List.filter
    (fun i ->
      let k = res.(i) and p = poles.(i) in
      let rec any j =
        if offset + j >= n then false
        else begin
          let contribution = Cx.norm k /. (Cx.norm p ** float_of_int (j + 1)) in
          contribution > 1e-9 *. Float.max 1e-30 (Float.abs m.(offset + j))
          || any (j + 1)
        end
      in
      any 0)
    indices
  |> List.map (fun i -> poles.(i))
  |> Array.of_list

(* Fit in the scaled domain.  [offset] = 1 when a direct term is wanted:
   the recurrence and residues then never touch m₀, which d contaminates. *)
let rec fit_scaled ~offset ~order m =
  if order < 1 then raise (Degenerate "no nonsingular Hankel system at any order");
  match char_poly ~offset ~order m with
  | exception Numeric.Lu.Singular _ -> fit_scaled ~offset ~order:(order - 1) m
  | exception Numeric.Cmatrix.Singular _ -> fit_scaled ~offset ~order:(order - 1) m
  | char -> (
    let poles = poles_of_char char in
    if Array.length poles = 0 then fit_scaled ~offset ~order:(order - 1) m
    else
      match residues ~offset ~poles (Array.sub m 0 (offset + Array.length poles)) with
      | exception Numeric.Cmatrix.Singular _ -> fit_scaled ~offset ~order:(order - 1) m
      | res -> (
        let kept = visible_poles ~offset poles res m in
        if Array.length kept = 0 then fit_scaled ~offset ~order:(order - 1) m
        else
          match
            (* Every pole visible: the solve just done had these inputs. *)
            if Array.length kept = Array.length poles then res
            else
              residues ~offset ~poles:kept
                (Array.sub m 0 (offset + Array.length kept))
          with
          | exception Numeric.Cmatrix.Singular _ ->
            fit_scaled ~offset ~order:(order - 1) m
          | res ->
            let direct = if offset = 0 then 0.0 else direct_for kept res m.(0) in
            let rom = Rom.make ~direct ~poles:kept ~residues:res () in
            if roundtrip_ok ~offset rom m then rom
            else fit_scaled ~offset ~order:(order - 1) m))

let stabilize ~offset rom m =
  if Rom.is_stable rom then rom
  else begin
    let keep =
      Array.to_list rom.Rom.poles
      |> List.filter (fun (p : Cx.t) -> p.Cx.re < 0.0)
      |> Array.of_list
    in
    if Array.length keep = 0 then
      raise (Degenerate "all poles unstable; cannot stabilize")
    else begin
      let res = residues ~offset ~poles:keep (Array.sub m 0 (offset + Array.length keep)) in
      let direct = if offset = 0 then 0.0 else direct_for keep res m.(0) in
      Rom.make ~direct ~poles:keep ~residues:res ()
    end
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
  let rom_hat = fit_scaled ~offset ~order m_hat in
  let rom_hat = if enforce_stability then stabilize ~offset rom_hat m_hat else rom_hat in
  if !Obs.enabled then begin
    Obs.Metrics.incr "pade.fit.count";
    Obs.Metrics.observe "pade.fit.order" (float_of_int (Rom.order rom_hat));
    if Rom.order rom_hat < order then
      Obs.Metrics.incr "pade.order_reduction.count"
  end;
  (* Map back from the scaled frequency ŝ = s/α: p = α·p̂, k = α·k̂; the
     direct term is scale invariant. *)
  Rom.make ~direct:rom_hat.Rom.direct
    ~poles:(Array.map (Cx.scale alpha) rom_hat.Rom.poles)
    ~residues:(Array.map (Cx.scale alpha) rom_hat.Rom.residues)
    ()

(* Taxonomy bridge: callers (and tests) match [Degenerate] directly; the
   classifier folds it into the shared taxonomy for policy layers (the
   sweep engine retries this kind at a reduced order). *)
let () =
  Awesym_error.register (function
    | Degenerate msg ->
        Some (Awesym_error.make Unstable_pade ~where:"pade.fit" msg)
    | _ -> None)
