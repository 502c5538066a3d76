(** Reduced-order models: the pole–residue form AWE produces.

    A model is [H(s) ≈ d + Σᵢ kᵢ/(s − pᵢ)], matching the leading moments of
    the original circuit; [d] is the direct-coupling (feedthrough) term,
    zero unless the fit was asked for it.  Complex poles appear in conjugate
    pairs, so all time responses are real. *)

type t = {
  poles : Numeric.Cx.t array;
  residues : Numeric.Cx.t array;
  direct : float;
}

val make :
  ?direct:float -> poles:Numeric.Cx.t array -> residues:Numeric.Cx.t array ->
  unit -> t
(** Raises [Invalid_argument] on length mismatch.  [direct] defaults to 0. *)

val order : t -> int

val transfer : t -> Numeric.Cx.t -> Numeric.Cx.t
(** Evaluate [H(s)]. *)

val transfer_derivative : t -> Numeric.Cx.t -> Numeric.Cx.t
(** [dH/ds] — used for group delay. *)

val at_frequency : t -> float -> Numeric.Cx.t
(** [H(j·2πf)], [f] in hertz. *)

val dc_gain : t -> float
(** [H(0) = d − Σ kᵢ/pᵢ] — always the circuit's exact [m₀] because AWE
    matches the zeroth moment. *)

val impulse : t -> float -> float
(** [h(t) = Σ Re(kᵢ·e^{pᵢ·t})] for [t > 0]; the [d·δ(t)] feedthrough impulse
    is not representable pointwise and is omitted. *)

val step : t -> float -> float
(** Unit-step response [y(t) = d + Σ Re((kᵢ/pᵢ)·(e^{pᵢ·t} − 1))] for
    [t > 0]. *)

type stepper
(** A model's step response prepared for evaluation at many instants:
    each [kᵢ/pᵢ] is computed once. *)

val stepper : t -> stepper

val step_with : stepper -> float -> float
(** [step_with (stepper m) t] is [step m t], bit for bit, evaluated on
    unboxed floats. *)

val ramp : t -> rise:float -> float -> float
(** Response to a 0→1 ramp over [rise] seconds (then held), analytic:
    the step response convolved with the ramp's derivative — the input
    shape delay models are usually quoted for.  Requires [rise > 0]. *)

val moments : t -> int -> float array
(** The first [n] moments the model reproduces:
    [m₀ = d − Σ kᵢ/pᵢ], [mₖ = −Σ kᵢ/pᵢ^{k+1}] for [k ≥ 1]. *)

val moments_of_parts :
  direct:float -> poles:float array -> residues:float array -> int ->
  float array
(** {!moments} of the model whose poles and residues are interleaved in
    float arrays (see {!Numeric.Cx.div_into}) — the form the Padé fit
    works in.  [moments m n] is this on [m]'s parts, so the bits are the
    same. *)

val numerator : t -> Numeric.Poly.t
(** Real numerator polynomial of [H] over the common denominator
    [Π(s − pᵢ)] (degree ≤ q−1, or q with a direct term). *)

val zeros : t -> Numeric.Cx.t array
(** Finite zeros of the model — roots of {!numerator}.  Empty when the
    numerator is constant. *)

val is_stable : t -> bool
(** All poles strictly in the left half plane. *)

val dominant_pole : t -> Numeric.Cx.t
(** The non-zero pole of smallest magnitude.  Raises [Failure] on an empty
    model. *)

val time_constant : t -> float
(** [1 / |Re(dominant pole)|] — the natural response horizon, useful for
    choosing transient windows. *)

val pp : Format.formatter -> t -> unit
