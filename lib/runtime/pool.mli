(** Fixed-size domain pool with a task-claiming cursor.

    The pool owns [jobs - 1] background domains, spawned once at
    {!create} and parked between runs; the caller participates as worker
    0.  Execution order is unspecified — determinism is the caller's
    responsibility: make every task's output a pure function of its
    index and the results are schedule-independent.

    Worker generations run inside [Obs.Metrics.with_shard], so counters
    bumped from task bodies accumulate in per-domain shards and merge
    into the global tables before {!run} returns. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [jobs] workers ([jobs - 1] domains; [jobs = 1]
    spawns none and {!run} executes inline).  Raises [Invalid_argument]
    when [jobs < 1]. *)

val run : t -> tasks:int -> (worker:int -> int -> unit) -> unit
(** [run t ~tasks f] executes [f ~worker i] for every [i] in
    [0 .. tasks - 1].  [worker] is in [0 .. size t - 1] and is stable for
    the duration of one task — index per-worker scratch with it.  Blocks
    until all tasks finish; if any task raised, the first exception is
    re-raised (with its backtrace) after the run drains.  Nested calls
    from inside a task body run inline on the calling worker. *)

val size : t -> int
(** The [jobs] the pool was created with. *)

val num_domains : t -> int
(** Background domains owned by the pool ([size t - 1], or 0). *)

val shutdown : t -> unit
(** Stop and join the background domains.  Idempotent; a subsequent
    {!run} raises [Invalid_argument]. *)

val in_task : unit -> bool
(** Whether this domain is a runtime worker: running a task body (of
    any pool) or an {!as_task} body. *)

val as_task : (unit -> 'a) -> 'a
(** [as_task f] runs [f] with this domain marked as a runtime worker, as
    a task body is, and restores the mark when [f] returns or raises.
    [Runtime.Service] bodies run under it. *)

val spawned_total : unit -> int
(** Process-wide count of domains ever spawned by pools — observability
    for the "[jobs = 1] spawns nothing" contract. *)
