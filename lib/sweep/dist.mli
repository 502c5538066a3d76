(** Element-value distributions for statistical sweeps.

    Sampling draws exclusively from an {!Obs.Rng.t} stream, so a sweep's
    points are a pure function of the seed — identical across machines and
    reruns (the seed is recorded in sweep results for this reason). *)

type t =
  | Uniform of { lo : float; hi : float }
  | Normal of { mean : float; std : float }
  | Lognormal of { mu : float; sigma : float }
      (** [exp N(mu, sigma)] — the classic process-variation model for
          strictly positive element values. *)

val uniform : lo:float -> hi:float -> t
(** Raises [Invalid_argument] unless [lo < hi]. *)

val normal : mean:float -> std:float -> t
(** Raises [Invalid_argument] unless [std > 0]. *)

val lognormal : mu:float -> sigma:float -> t
(** Raises [Invalid_argument] unless [sigma > 0]. *)

val around : nominal:float -> pct:float -> t
(** Uniform tolerance band [nominal ± pct%] — the "5% resistor" shorthand.
    Raises [Invalid_argument] on a zero nominal or non-positive [pct]. *)

val sample : t -> Obs.Rng.t -> float
(** One draw (normal/lognormal use Box–Muller over the stream). *)

val draws : t -> int
(** Raw stream draws one {!sample} consumes (1 for uniform, 2 for the
    Box–Muller kinds).  Parallel plans use this as the [Obs.Rng.skip]
    stride when splitting a seeded stream into per-chunk streams. *)

val quantile : t -> float -> float
(** Inverse CDF, used to map Latin-hypercube strata onto the distribution.
    Normal quantiles use Acklam's approximation (relative error < 1.2e-9).
    Raises [Invalid_argument] for [p] outside the distribution's domain. *)

val bounds : t -> float * float
(** Corner values: the support for [Uniform], [±3σ] for [Normal] (and its
    image under [exp] for [Lognormal]).  Feeds corner/grid plans. *)

val codec : t Obs.Codec.t
(** [{"kind": "uniform", "lo", "hi"}], likewise [normal] ([mean], [std])
    and [lognormal] ([mu], [sigma]); decimals round-trip bit-exactly and
    decoding revalidates through the smart constructors. *)
