(** Telemetry for the AWE pipeline: tracing spans, kernel counters and
    machine-readable stats.

    The subsystem is inert (and instrumented hot paths cost one
    load-and-branch) until {!enabled} is set.  Typical use:

    {[
      Obs.enabled := true;
      let result = Awe.Driver.analyze ~order:2 nl in
      Format.eprintf "%a" Obs.report ();
      Obs.write_trace "trace.json"
    ]} *)

val enabled : bool ref
(** Master switch; default [false].  See {!Config.enabled} — this is the
    same ref. *)

module Json : module type of Json
module Codec : module type of Codec
module Rng : module type of Rng
module Span : module type of Span
module Metrics : module type of Metrics

val reset : unit -> unit
(** Drop all recorded spans, counters and histograms. *)

val report : Format.formatter -> unit -> unit
(** Pretty-print the phase-time tree followed by the counter and histogram
    tables (sections with no data are omitted). *)

val write_trace : string -> unit
(** Write the recorded spans as Chrome-trace JSON to the given path. *)

val machine_info : unit -> Json.t
(** Hostname / OS / compiler provenance block for bench reports. *)

type experiment = { id : string; wall_s : float; metrics : Metrics.snapshot }
type bench = {
  machine : Json.t;  (** {!machine_info}, carried opaquely *)
  experiments : experiment list;
}

val bench_codec : bench Codec.t
(** The ["awesymbolic-bench/1"] document: [bench --json] writes it, and
    [bench check] decodes both the baseline and a fresh run through it,
    so a baseline it cannot read fails instead of comparing nothing. *)
