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
    worker loss, and released claims.

    {2 Scheduling}

    One domain per address holds a connection to its daemon and, once
    connected, claims the lowest chunk that is neither done nor
    claimed; while every remaining chunk is claimed elsewhere it waits
    on the shared scoreboard.  A faster daemon therefore takes more
    chunks, and a chunk whose attempt failed is free again for the next
    domain that asks.

    {2 Fault model}

    Workers are expendable; the sweep is not.

    - A transient failure of a connect or an RPC ([unavailable],
      [timeout], [overloaded], [worker_crash], [injected_fault]) costs
      one attempt; the next attempt, after the exponential backoff and
      deterministic jitter of {!Serve.Client.Backoff.delay}, connects
      once more.  A domain stops trying once no chunk is left to claim.
    - Each RPC is bounded by [chunk_timeout_s] (socket deadline plus a
      server-side [deadline_ms], so a queued-but-hopeless chunk is shed
      server-side too).
    - A domain connects before it claims, so an address that never
      answers is declared dead without ever holding a chunk.  An idle
      connection is not pinged: a daemon that died meanwhile fails the
      first chunk that connection takes, and with nothing left to take
      it does not matter.
    - After [worker_retries] {e consecutive} failures a worker is
      declared dead; a chunk it held was released on the failure, and
      the survivors take it.  The sweep degrades down to one worker.
    - If {e all} workers die, [run] raises [worker_crash]; every
      completed chunk is already a line of the checkpoint (when
      configured), and re-running with
      [~resume:true] re-evaluates only the missing chunks, exactly like
      a local resume — the checkpoint format and key are shared with
      [Sweep.Engine].
    - Non-retryable failures (key mismatch = model/version skew,
      corrupt records, invalid requests, a checkpoint append that
      cannot be written) abort the run immediately: wrong answers must
      not be retried into existence.

    Injection sites for the kill-a-worker suite: ["dsweep.dispatch"]
    (keyed by chunk, before send), ["dsweep.recv"] (keyed by chunk,
    after receive), ["dsweep.worker"] (keyed by worker index, after a
    claim).

    Obs counters: [dsweep.run.count], [dsweep.chunks.completed],
    [dsweep.chunks.reassigned] (claims released by a failed attempt),
    [dsweep.retries], [dsweep.workers.lost].  See docs/PARALLELISM.md
    for the topology and docs/ROBUSTNESS.md for the failure drill. *)

type config = {
  addrs : string list;  (** daemon addresses ([unix:PATH] / [tcp:H:P]) *)
  chunk_timeout_s : float;  (** per-RPC deadline, client and server side *)
  worker_retries : int;
      (** consecutive failures before a worker is declared dead *)
  backoff : Serve.Client.Backoff.t;
      (** delay between a worker's attempts ([worker_retries] bounds
          them, not [attempts]) *)
}

val default_config : addrs:string list -> config
(** 30 s chunk timeout, 3 retries, default backoff. *)

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
