(** The serving daemon: one acceptor domain fronting N worker domains.

    The acceptor owns the listener ({!Transport}: Unix socket or TCP),
    all connection state, framing, and the trace ring; [ping], [stats],
    [metrics], [trace], and [shutdown] answer inline so readiness probes
    cost nothing even under full load.  Model-bound requests
    (eval/info/sweep_chunk/optimize) pass tiered admission
    ({!Admission}): the client cap and the dead-on-arrival deadline
    first, then the least-loaded worker under the one per-worker backlog
    bound [worker_queue].  The acceptor never reads the artifact: the
    chosen worker resolves the path through its private {!Registry} and
    evaluates through its private {!Batcher}, so the single-owner
    evaluator contract holds per worker.

    SIGTERM (or a [shutdown] request) starts a graceful drain: the
    listener closes, workers flush immediately, queued evaluations
    finish, their responses flush, and the loop exits without losing any
    in-flight request — at any worker count.  Malformed frames answer
    classified errors rather than killing the daemon.  Served results
    are bit-identical to offline [awesym eval] at every worker count and
    over both transports (batch lanes are independent; kernels are
    deterministic).

    Operational details live in [docs/SERVING.md]. *)

type config = {
  listen : Transport.addr;  (** [unix:PATH] or [tcp:HOST:PORT] *)
  workers : int;  (** worker domains, each owning a registry + batcher *)
  batch : Batcher.config;  (** per-worker batching knobs *)
  admission : Admission.config;  (** per-client caps, deadline shedding *)
  worker_queue : int;
      (** per-worker backlog bound: requests admitted to the worker and
          not yet answered.  With every worker at the bound, admission
          sheds [overloaded] at [serve.admission.queue]; neither the
          mailbox nor the batcher holds another bound *)
  max_models : int;  (** per-worker registry LRU capacity *)
  cache_gc_bytes : int option;
      (** run [Cache.gc] at startup with this budget; [None] skips *)
  versions : (string * string) list;
      (** the pong version inventory; the CLI passes the full schema
          list that [awesym --version] prints *)
  trace_log : string option;
      (** append completed request traces as JSONL here ([None] keeps
          only the in-memory ring); see {!Reqtrace} for the record
          schema *)
  trace_log_max_bytes : int;
      (** rotate the trace log (rename to [path ^ ".1"]) past this size *)
  trace_capacity : int;
      (** bounded in-memory ring of completed traces, served by the
          [trace] request type *)
}

val default_config : listen:Transport.addr -> config
(** One worker, default batching and admission knobs, a 1024-request
    backlog bound per worker, 8 resident models per worker, 256 MiB
    cache budget, no trace log, 256-trace ring, 16 MiB rotation
    threshold. *)

type t

val create : config -> t
(** Bind + listen (a stale Unix socket is unlinked only after [stat]
    confirms it is a socket; other path kinds are refused) and spawn the
    worker domains.  Raises [Awesym_error.Error] when the address cannot
    be bound, [Invalid_argument] on non-positive [workers] or
    [worker_queue]. *)

val bound_addr : t -> Transport.addr
(** The resolved listen address — for [tcp:HOST:0] this carries the
    kernel-assigned port. *)

val step : t -> stop:bool ref -> bool
(** One acceptor iteration: select, accept, read, dispatch/route,
    deliver worker completions, write.  Returns [false] once draining
    has completed and the daemon should exit.  Exposed so tests can
    drive the loop in-process; [run] is the production wrapper.
    Re-raises a worker domain's exception if one died. *)

val shutdown : t -> unit
(** Halt and join the worker domains, close the listener (unlinking a
    Unix socket path), drop every connection.  Idempotent. *)

val run : ?log:(string -> unit) -> config -> unit
(** Create, install signal handlers (SIGTERM drains, SIGPIPE ignored),
    loop until drained, then tear down and report final stats via
    [log].  Sets [Obs.enabled] — a daemon always records its own
    metrics. *)
