(** Long-running worker domains.

    {!Pool} is for bounded task sets; a [Service] is for daemon-lifetime
    loops (serving worker shards).  Each worker runs [body ~worker] on
    its own domain until the body returns; the caller decides when that
    is (the daemon's halt flag once the worker's queue is drained, which
    is what makes lose-nothing shutdown composable). *)

type t

val start : workers:int -> (worker:int -> unit) -> t
(** Spawn [workers] domains, each running [body ~worker].  [worker] is
    in [0 .. workers - 1].  A body runs as a runtime worker
    ({!Pool.as_task}), so [Runtime.resolve_jobs] is 1 inside it and its
    parallel calls run inline.  Raises [Invalid_argument] when
    [workers < 1]. *)

val join : t -> unit
(** Wait for every body to return.  Idempotent — later calls return
    immediately.  If any body raised, the first exception is re-raised
    (with its backtrace) from the joining call. *)

val failed : t -> bool
(** Whether some worker body raised; readable without joining, so a
    supervising loop can notice a dead shard while still serving. *)
