(** Performance measures extracted from reduced-order models — the
    quantities plotted in the paper's Figs. 4–7 (dominant pole, DC gain,
    unity-gain frequency, phase margin) and the interconnect delays the
    introduction motivates. *)

val dc_gain : Rom.t -> float
val dc_gain_db : Rom.t -> float

val dominant_pole_hz : Rom.t -> float
(** |dominant pole| / 2π — the −3 dB corner for a single-pole-dominated
    system. *)

val unity_gain_frequency : Rom.t -> float option
(** Frequency [f] (hertz) where [|H(j·2πf)| = 1], found by bisection in
    log-frequency between the dominant pole and well past the fastest
    pole.  The bisection stops at its floating-point fixed point — the
    first midpoint that rounds onto an end of the bracket, after which no
    step could move it — or after 100 steps, whichever comes first.  Each
    step decides [|H| > 1] from [|H|² = re² + im²] when that lies outside
    a guard band of 1e-12 around 1, far wider than its rounding, so only
    the steps near the crossing (and a NaN) pay for the exact
    [Float.hypot]: the decisions, and so the bits, are those of
    [gain_at].  [None] when the magnitude never crosses unity (e.g. DC
    gain below 1). *)

val phase_margin : Rom.t -> float option
(** [180° + ∠H(j·2π·f_unity)] in degrees; [None] without a unity crossing.
    Solves the crossing with {!unity_gain_frequency}. *)

val phase_margin_at : Rom.t -> float -> float
(** [phase_margin_at m f] is the phase margin at a given crossing [f],
    as returned by {!unity_gain_frequency}: a caller that needs both
    measures solves the crossing once and reuses it here. *)

val gain_at : Rom.t -> float -> float
(** Magnitude at a frequency in hertz: [Cx.norm (Rom.at_frequency m f)]
    bit for bit, computed on unboxed floats without allocating. *)

val delay_50 : ?horizon:float -> Rom.t -> float option
(** 50% step-response delay: first time the unit-step response reaches half
    its final value (Elmore-style interconnect delay, computed on the actual
    ROM waveform).  The response is scanned at 4000 samples over the
    horizon (default: 30 dominant time constants), and the first sample
    interval that crosses is bisected, at most 60 halvings; the bisection
    stops at its floating-point fixed point, the first midpoint that
    rounds onto an end of the interval, which every later halving would
    return too.  [None] if it never crosses within the horizon. *)

val rise_time : ?lo:float -> ?hi:float -> ?horizon:float -> Rom.t -> float option
(** 10–90% (by default) rise time of the step response: the two
    crossings, each found as in {!delay_50}, share one scan. *)

val peak_step : ?horizon:float -> ?samples:int -> Rom.t -> float * float
(** [(t_peak, y_peak)] — maximum |step response| over the horizon; used to
    quantify cross-talk amplitude (Figs. 9–10 study its dependence on the
    symbols).  Samples with {!Rom.step_with}, as the crossings do. *)

val elmore_delay : float array -> float
(** First-moment delay estimate [−m₁/m₀] from output moments. *)

val group_delay : Rom.t -> float -> float
(** [group_delay rom f] is [τ(f) = −dφ/dω] at [f] hertz, computed
    analytically from the pole/residue form ([−Re(H′/H)] at [s = jω]). *)
