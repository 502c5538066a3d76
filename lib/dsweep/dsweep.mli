(** Fault-tolerant distributed sweeps: a coordinator driving serving
    daemons as chunk workers.

    {!run} executes the same staged sweep as [Sweep.Engine.run], but
    each chunk travels to a remote daemon as a [sweep_chunk] request
    (the full sweep parameterization plus one chunk index) and comes
    back as a checkpoint-format record.  Because [Sweep.Engine.prepare]
    is bit-identical from equal inputs on every node — plan JSON and
    floats round-trip exactly, per-chunk RNG streams are jump-ahead
    copies of one seeded stream — and the coordinator merges strictly
    by chunk index, the merged result is {b byte-identical to a
    single-node run} at any worker count, in the face of retries,
    worker loss, and chunk reassignment.

    {2 Fault model}

    Workers are expendable; the sweep is not.

    - Every connect and RPC retries transient failures
      ([unavailable], [timeout], [overloaded], [worker_crash],
      [injected_fault]) with exponential backoff and deterministic
      jitter ({!Serve.Client.Backoff}).
    - Each RPC is bounded by [chunk_timeout_s] (socket deadline plus a
      server-side [deadline_ms], so a queued-but-hopeless chunk is shed
      server-side too).  Idle workers ping their daemon every
      [heartbeat_s] so a silently dead peer is noticed between chunks.
    - After [worker_retries] {e consecutive} failures a worker is
      declared dead: its claimed chunk is released and every chunk
      rendezvous-assigned to it falls to the surviving workers
      ({!assign} is recomputed against the live set).  The sweep
      degrades down to one worker.
    - If {e all} workers die, [run] flushes the checkpoint (when
      configured) and raises [worker_crash]; re-running with
      [~resume:true] re-evaluates only the missing chunks, exactly like
      a local resume — the checkpoint format and key are shared with
      [Sweep.Engine].
    - Non-retryable failures (key mismatch = model/version skew,
      corrupt records, invalid requests) abort the run immediately:
      wrong answers must not be retried into existence.

    Injection sites for the kill-a-worker suite: ["dsweep.dispatch"]
    (keyed by chunk, before send), ["dsweep.recv"] (keyed by chunk,
    after receive), ["dsweep.worker"] (keyed by worker index).

    Obs counters: [dsweep.run.count], [dsweep.chunks.completed],
    [dsweep.chunks.reassigned], [dsweep.retries], [dsweep.heartbeats],
    [dsweep.workers.lost].  See docs/PARALLELISM.md for the topology
    and docs/ROBUSTNESS.md for the failure drill. *)

type config = {
  addrs : string list;  (** daemon addresses ([unix:PATH] / [tcp:H:P]) *)
  chunk_timeout_s : float;  (** per-RPC deadline, client and server side *)
  heartbeat_s : float;  (** idle liveness-ping cadence *)
  worker_retries : int;
      (** consecutive failures before a worker is declared dead *)
  backoff : Serve.Client.Backoff.t;  (** connect/RPC retry schedule *)
}

val default_config : addrs:string list -> config
(** 30 s chunk timeout, 1 s heartbeat, 3 retries, default backoff. *)

val assign : key:string -> chunk:int -> live:string list -> string
(** Rendezvous (highest-random-weight) chunk placement: a pure function
    of the sweep key, the chunk index, and the live worker set — every
    coordinator computes the same assignment with no coordination
    state, and a worker's death moves {e only} that worker's chunks.
    Raises [Invalid_argument] on an empty live set. *)

val run :
  ?seed:int ->
  ?block:int ->
  ?measures:Sweep.Engine.measure list ->
  ?specs:Sweep.Engine.spec list ->
  ?policy:Sweep.Engine.policy ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  config ->
  model:Awesymbolic.Model.t ->
  model_path:string ->
  Sweep.Plan.t ->
  Sweep.Engine.result
(** Distribute the sweep over [config.addrs] and merge
    deterministically.  [model_path] is the artifact path {e as the
    daemons see it}; [model] is the coordinator's own copy, used to
    build the reference preparation and its key — a worker whose
    artifact digests differently computes a different key and refuses,
    so skew is caught before any value is merged.  Defaults and raised
    errors match [Sweep.Engine.run]; additionally raises
    [Awesym_error.Error] (kind [worker_crash]) when every worker is
    lost, and (kind [invalid_request]) for specs whose limits do not
    survive their wire spelling.  [log] receives human-readable
    degradation notices (worker declared dead, ...). *)
