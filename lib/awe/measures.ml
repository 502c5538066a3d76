module Cx = Numeric.Cx

let dc_gain = Rom.dc_gain
let dc_gain_db m = 20.0 *. Float.log10 (Float.abs (Rom.dc_gain m))
let dominant_pole_hz m = Cx.norm (Rom.dominant_pole m) /. (2.0 *. Float.pi)
(* [Rom.at_frequency m f] on unboxed floats, real part at [h.(0)] and
   imaginary part at [h.(1)]: the same operations in the same order
   ([Complex.div]'s branch included), so the same bits, with nothing
   allocated. *)
let[@inline] response_into h m f =
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
  h.(0) <- !re;
  h.(1) <- !im

(* [Cx.norm (Rom.at_frequency m f)], [h] as scratch. *)
let[@inline] gain_into h m f =
  response_into h m f;
  Float.hypot h.(0) h.(1)

let gain_at m f = gain_into [| 0.0; 0.0 |] m f

(* [gain_at m f > 1.0], deciding from |H|² = re² + im² unless that lies
   within [unity_band] of 1.  Rounding leaves |H|² within a few ulps of
   the exact square, and [Float.hypot] is faithful, so outside the band
   the two cannot fall on different sides of 1; inside it (and for a
   NaN, which fails both tests) the exact [Float.hypot] decides.  An
   overflowing or underflowing square decides as [Float.hypot] would. *)
let unity_band = 1e-12

let[@inline] above_unity h m f =
  response_into h m f;
  let re = h.(0) and im = h.(1) in
  let s = (re *. re) +. (im *. im) in
  if s > 1.0 +. unity_band then true
  else if s < 1.0 -. unity_band then false
  else Float.hypot re im > 1.0

let fastest_pole_hz m =
  Array.fold_left (fun acc p -> Float.max acc (Cx.norm p)) 0.0 m.Rom.poles
  /. (2.0 *. Float.pi)

let unity_gain_frequency m =
  if Rom.order m = 0 then None
  else begin
    let h = [| 0.0; 0.0 |] in
    let f_lo = Float.max 1e-12 (dominant_pole_hz m /. 1e3) in
    if gain_into h m f_lo <= 1.0 then None
    else begin
      (* March up past the fastest pole until the magnitude drops below 1;
         a strictly proper model always does eventually. *)
      let rec bracket f_hi tries =
        if tries = 0 then None
        else if gain_into h m f_hi < 1.0 then Some f_hi
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
          if above_unity h m !mid then lo := !mid else hi := !mid;
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

let horizon_of horizon m =
  match horizon with Some h -> h | None -> default_horizon m

(* Bisection for the instant in [t0, t1] where the step response crosses
   [target], given [f0 = y(t0) − target]: at most 60 halvings, each
   keeping the end whose sign differs.  Once the midpoint rounds onto an
   end the bracket cannot move again (the kept half is that same end, or
   the bracket itself), so every later step would return the same
   midpoint: stop there. *)
let bisect s target t0 f0 t1 =
  let lo = ref t0 and hi = ref t1 and f_lo = ref f0 and n = ref 60 in
  let mid = ref (0.5 *. (t0 +. t1)) in
  while !n > 0 && !mid <> !lo && !mid <> !hi do
    let f_mid = Rom.step_with s !mid -. target in
    if f_mid *. !f_lo <= 0.0 then hi := !mid
    else begin
      lo := !mid;
      f_lo := f_mid
    end;
    decr n;
    mid := 0.5 *. (!lo +. !hi)
  done;
  !mid

(* The first crossings of [a] and of [b] by the step response over the
   horizon, found by one scan of 4000 samples and stored at [out.(0)]
   and [out.(1)]; NaN where there is none (a crossing itself is never
   NaN).  A NaN [b] asks for [a] alone.  Each target sees the samples
   a scan of its own would see, so its crossing is the same. *)
let crossings ?horizon m a b out =
  out.(0) <- Float.nan;
  out.(1) <- Float.nan;
  let horizon = horizon_of horizon m in
  if Float.is_finite horizon then begin
    let s = Rom.stepper m in
    let samples = 4000 in
    let dt = horizon /. float_of_int samples in
    let found_a = ref false and found_b = ref (Float.is_nan b) in
    let prev = ref (Rom.step_with s 0.0) and k = ref 1 in
    while !k <= samples && not (!found_a && !found_b) do
      let t0 = dt *. float_of_int (!k - 1) and t = dt *. float_of_int !k in
      let y = Rom.step_with s t in
      if (not !found_a) && (!prev -. a) *. (y -. a) <= 0.0 && !prev <> y then begin
        out.(0) <- bisect s a t0 (!prev -. a) t;
        found_a := true
      end;
      if (not !found_b) && (!prev -. b) *. (y -. b) <= 0.0 && !prev <> y then begin
        out.(1) <- bisect s b t0 (!prev -. b) t;
        found_b := true
      end;
      prev := y;
      incr k
    done
  end

let delay_50 ?horizon m =
  let final = Rom.dc_gain m in
  if final = 0.0 then None
  else begin
    let out = [| 0.0; 0.0 |] in
    crossings ?horizon m (0.5 *. final) Float.nan out;
    if Float.is_nan out.(0) then None else Some out.(0)
  end

let rise_time ?(lo = 0.1) ?(hi = 0.9) ?horizon m =
  let final = Rom.dc_gain m in
  if final = 0.0 then None
  else begin
    let out = [| 0.0; 0.0 |] in
    crossings ?horizon m (lo *. final) (hi *. final) out;
    if Float.is_nan out.(0) || Float.is_nan out.(1) then None
    else Some (Float.abs (out.(1) -. out.(0)))
  end

let peak_step ?horizon ?(samples = 2000) m =
  let horizon = horizon_of horizon m in
  let horizon = if Float.is_finite horizon then horizon else 1.0 in
  let s = Rom.stepper m in
  let dt = horizon /. float_of_int samples in
  let best_t = ref 0.0 and best_y = ref 0.0 in
  for k = 0 to samples do
    let t = dt *. float_of_int k in
    let y = Rom.step_with s t in
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
