(** Named monotonic counters and log-scale (power-of-two bucket) histograms.

    Writers ({!incr}, {!add}, {!observe}) are no-ops while [Obs.enabled] is
    unset.  Readers never depend on the flag, so reports can be printed
    after recording stops. *)

type stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
      (** non-empty power-of-two buckets as [(upper_bound, count)] *)
}

val incr : ?by:int -> string -> unit
(** Bump a counter (created on first use); [by] defaults to 1. *)

val add : string -> int -> unit
(** [add name n] is [incr ~by:n name]. *)

val observe : string -> float -> unit
(** Record one histogram sample. *)

val set_gauge : string -> float -> unit
(** Set a gauge to its current value (last write wins).  Gauges carry
    instantaneous occupancy — queue depth, resident models — and are
    never sharded. *)

val counter : string -> int
(** Current counter value; 0 when it was never bumped. *)

val counters_list : unit -> (string * int) list
(** All counters, sorted by name. *)

val gauge : string -> float option
(** Current gauge value; [None] when it was never set. *)

val gauges_list : unit -> (string * float) list
(** All gauges, sorted by name. *)

val histogram : string -> stats option

val histograms_list : unit -> (string * stats) list
(** All histograms, sorted by name. *)

val mean : stats -> float

val quantile : stats -> float -> float
(** [quantile s q] estimates the [q]-th quantile ([0..1]) from the
    power-of-two buckets, interpolating linearly inside the bucket that
    holds the target rank and clamping to the observed min/max (so [q=0]
    and [q=1] are exact).  [nan] when the series is empty. *)

val to_prometheus : unit -> string
(** The whole metric surface in Prometheus text exposition format:
    counters, gauges, and histograms as summaries with
    [quantile="0.5"/"0.9"/"0.99"] series plus [_sum]/[_count].  Dotted
    names map to underscores under an [awesym_] prefix. *)

val pp_table : Format.formatter -> unit -> unit
(** Human-readable counter/gauge/histogram tables, sorted by name. *)

val with_shard : (unit -> 'a) -> 'a
(** Run [f] with this domain's writers redirected into a private shard,
    merged exactly (counter sums, histogram unions) into the global
    tables when [f] returns or raises.  Worker domains wrap task
    batches in this so hot-path [incr]/[observe] calls take no lock;
    nested calls on the same domain reuse the active shard.  Readers on
    other domains do not see the shard until the merge. *)

val reset : unit -> unit

(** {1 Snapshots} *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** One histogram: {!stats} without its buckets, plus {!mean} and the
    {!quantile} estimates. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
}

val snapshot : unit -> snapshot
(** Every counter, gauge and histogram summary, each table sorted by
    name. *)

val snapshot_codec : snapshot Codec.t
(** A snapshot as one JSON object of three tables keyed by metric name,
    as bench reports and the serve daemon's stats carry it. *)
