module Cx = Numeric.Cx

let dc_gain = Rom.dc_gain
let dc_gain_db m = 20.0 *. Float.log10 (Float.abs (Rom.dc_gain m))
let dominant_pole_hz m = Cx.norm (Rom.dominant_pole m) /. (2.0 *. Float.pi)
(* [Cx.norm (Rom.at_frequency m f)] on unboxed floats: the same operations
   in the same order ([Complex.div]'s branch included, then
   [Float.hypot]), so the same bits, with nothing allocated. *)
let[@inline] gain_at m f =
  let w = 2.0 *. Float.pi *. f in
  let poles = m.Rom.poles and residues = m.Rom.residues in
  let re = ref m.Rom.direct and im = ref 0.0 in
  for i = 0 to Array.length poles - 1 do
    let p = poles.(i) and k = residues.(i) in
    let yre = 0.0 -. p.Cx.re and yim = w -. p.Cx.im in
    if Float.abs yre >= Float.abs yim then begin
      let r = yim /. yre in
      let d = yre +. (r *. yim) in
      re := !re +. ((k.Cx.re +. (r *. k.Cx.im)) /. d);
      im := !im +. ((k.Cx.im -. (r *. k.Cx.re)) /. d)
    end
    else begin
      let r = yre /. yim in
      let d = yim +. (r *. yre) in
      re := !re +. (((r *. k.Cx.re) +. k.Cx.im) /. d);
      im := !im +. (((r *. k.Cx.im) -. k.Cx.re) /. d)
    end
  done;
  Float.hypot !re !im

let fastest_pole_hz m =
  Array.fold_left (fun acc p -> Float.max acc (Cx.norm p)) 0.0 m.Rom.poles
  /. (2.0 *. Float.pi)

let unity_gain_frequency m =
  if Rom.order m = 0 then None
  else begin
    let f_lo = Float.max 1e-12 (dominant_pole_hz m /. 1e3) in
    if gain_at m f_lo <= 1.0 then None
    else begin
      (* March up past the fastest pole until the magnitude drops below 1;
         a strictly proper model always does eventually. *)
      let rec bracket f_hi tries =
        if tries = 0 then None
        else if gain_at m f_hi < 1.0 then Some f_hi
        else bracket (f_hi *. 10.0) (tries - 1)
      in
      match bracket (Float.max f_lo (fastest_pole_hz m *. 10.0)) 40 with
      | None -> None
      | Some f_hi ->
        (* Bisection in log-frequency, at most 100 steps.  [gain_at lo > 1]
           holds throughout and [gain_at hi > 1] never does, so once the
           midpoint rounds onto an end the bracket cannot move again and
           every later step would return that same midpoint: stop there. *)
        let lo = ref f_lo and hi = ref f_hi and steps = ref 100 in
        let mid = ref (Float.sqrt (f_lo *. f_hi)) in
        while !steps > 0 && !mid <> !lo && !mid <> !hi do
          if gain_at m !mid > 1.0 then lo := !mid else hi := !mid;
          decr steps;
          mid := Float.sqrt (!lo *. !hi)
        done;
        Some !mid
    end
  end

let phase_margin_at m f =
  let h = Rom.at_frequency m f in
  180.0 +. (Cx.arg h *. 180.0 /. Float.pi)

let phase_margin m = Option.map (phase_margin_at m) (unity_gain_frequency m)

let default_horizon m = 30.0 *. Rom.time_constant m

let crossing ?horizon m target =
  let horizon = match horizon with Some h -> h | None -> default_horizon m in
  if not (Float.is_finite horizon) then None
  else begin
    let samples = 4000 in
    let dt = horizon /. float_of_int samples in
    let crossed t0 t1 =
      (* Bisection for the crossing instant inside [t0, t1]. *)
      let rec go lo hi n =
        if n = 0 then 0.5 *. (lo +. hi)
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if (Rom.step m mid -. target) *. (Rom.step m lo -. target) <= 0.0 then
            go lo mid (n - 1)
          else go mid hi (n - 1)
        end
      in
      go t0 t1 60
    in
    let rec scan k prev =
      if k > samples then None
      else begin
        let t = dt *. float_of_int k in
        let y = Rom.step m t in
        if (prev -. target) *. (y -. target) <= 0.0 && prev <> y then
          Some (crossed (dt *. float_of_int (k - 1)) t)
        else scan (k + 1) y
      end
    in
    scan 1 (Rom.step m 0.0)
  end

let delay_50 ?horizon m =
  let final = Rom.dc_gain m in
  if final = 0.0 then None else crossing ?horizon m (0.5 *. final)

let rise_time ?(lo = 0.1) ?(hi = 0.9) ?horizon m =
  let final = Rom.dc_gain m in
  if final = 0.0 then None
  else
    match (crossing ?horizon m (lo *. final), crossing ?horizon m (hi *. final)) with
    | Some t_lo, Some t_hi -> Some (Float.abs (t_hi -. t_lo))
    | _, _ -> None

let peak_step ?horizon ?(samples = 2000) m =
  let horizon = match horizon with Some h -> h | None -> default_horizon m in
  let horizon = if Float.is_finite horizon then horizon else 1.0 in
  let dt = horizon /. float_of_int samples in
  let best_t = ref 0.0 and best_y = ref 0.0 in
  for k = 0 to samples do
    let t = dt *. float_of_int k in
    let y = Rom.step m t in
    if Float.abs y > Float.abs !best_y then begin
      best_t := t;
      best_y := y
    end
  done;
  (!best_t, !best_y)

let elmore_delay m =
  if Array.length m < 2 then invalid_arg "Measures.elmore_delay: need 2 moments";
  if m.(0) = 0.0 then invalid_arg "Measures.elmore_delay: zero DC gain";
  -.m.(1) /. m.(0)

let group_delay rom f =
  let s = Cx.make 0.0 (2.0 *. Float.pi *. f) in
  let h = Rom.transfer rom s in
  let h' = Rom.transfer_derivative rom s in
  -.(Cx.div h' h).Cx.re
