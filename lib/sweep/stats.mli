(** Per-output summaries of a sweep's samples.

    Non-finite samples (NaN from complex poles, ±∞ from escaping zeros) are
    excluded from the moments/quantiles/histogram but stay visible as the
    gap between [n] and [finite]. *)

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
    type 7, the numpy default) between the order statistics
    {!select_ranks} places.  [mean] and [std] come from plain sums; when
    one of them overflows on finite samples (values near 1e307, or
    deviations beyond 1e154) it is recomputed in scaled form.  Likewise
    the histogram's width, bin indices and edges, and a quantile's
    interpolation, are computed in halves only when the difference they
    take ([max − min], or of two neighbouring order statistics)
    overflows.  So a summary that is finite from the plain formulas
    keeps its bits.  Raises [Invalid_argument] on an empty sample. *)

val summarize_into : ?bins:int -> ?probs:float list -> float array -> summary
(** [summarize], on a sample the caller gives up: the array is
    permuted and overwritten, and saves the copy [summarize] makes. *)

val select_ranks : float array -> int array -> unit
(** [select_ranks a ranks] puts at [a.(r)], for each [r] of [ranks]
    (ascending, distinct, inside [a]), the value [Array.sort compare]
    puts there, and may overwrite every other cell.  [a] holds finite
    values.  It counts the values into buckets by a monotone index over
    [min, max], and sorts (or selects from again) only the buckets that
    hold a wanted rank.  A sample holding both -0.0 and 0.0, one whose
    [max − min] overflows, and one whose buckets keep splitting off few
    values are heap-sorted instead, so the worst case is O(n log n). *)

val to_json : summary -> Obs.Json.t
