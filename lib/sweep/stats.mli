(** Per-output summaries of a sweep's samples.

    Non-finite samples (NaN from complex poles, ±∞ from escaping zeros) are
    excluded from the moments/quantiles/histogram but stay visible as the
    gap between [n] and [finite] — and count as failures in {!yield}. *)

type summary = {
  n : int;  (** Total samples, including non-finite. *)
  finite : int;  (** Samples the statistics below are computed over. *)
  mean : float;
  std : float;  (** Sample (n−1) standard deviation. *)
  min : float;
  max : float;
  quantiles : (float * float) list;  (** [(p, value)] pairs, ascending. *)
  histogram : (float * float * int) array;
      (** [(lo, hi, count)] equal-width bins spanning [min, max]. *)
}

val default_probs : float list
(** [0.05; 0.25; 0.5; 0.75; 0.95]. *)

val summarize : ?bins:int -> ?probs:float list -> float array -> summary
(** Default 20 histogram bins.  All-NaN input yields NaN statistics and an
    empty histogram.  Quantiles use linear interpolation (Hyndman–Fan
    type 7, the numpy default).  [mean] and [std] come from plain sums;
    when one of them overflows on finite samples (values near 1e307, or
    deviations beyond 1e154) it is recomputed in scaled form, so a
    summary that is finite from plain sums keeps its bits.  Raises
    [Invalid_argument] on an empty sample. *)

val yield : pass:(float -> bool) -> float array -> float
(** Fraction of samples that are finite {e and} satisfy [pass] — the
    statistical-design yield figure.  Raises [Invalid_argument] on an empty
    sample. *)

val to_json : summary -> Obs.Json.t
