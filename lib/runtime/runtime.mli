(** Domain-parallel execution runtime.

    A shared plan–executor core for the evaluation stack: deterministic
    {!Chunk} grids, a reusable {!Pool} of domains, and ordered map /
    iteration helpers sized by {!resolve_jobs}.  The determinism
    contract (see docs/PARALLELISM.md): work decomposition is a pure
    function of the problem size, reduction is ordered by index, so any
    [jobs] count produces bit-identical results to [jobs = 1]. *)

module Chunk = Chunk
module Pool = Pool
module Fault = Fault
module Service = Service

val resolve_jobs : int option -> int
(** The one rule for sizing parallelism; every [?jobs] argument goes
    through it.  The count is the explicit [Some j], else the
    {!set_default_jobs} override, else [AWESYM_JOBS] from the
    environment, else 1 (an unparsable value reads as 1).  It is floored
    at 1 and capped at [Domain.recommended_domain_count ()]; each capped
    request bumps the [runtime.jobs.clamped] counter.  On a domain that
    is already a runtime worker — inside a pool task or a {!Service}
    body — it is 1, so nested parallel calls run inline on that
    worker. *)

val set_default_jobs : int option -> unit
(** Process-wide override (the CLI's [--jobs]); [None] restores the
    environment/default resolution. *)

val parallel_iter : ?jobs:int -> int -> (worker:int -> int -> unit) -> unit
(** [parallel_iter n f] runs [f ~worker i] for [i] in [0 .. n - 1] on the
    shared pool.  Inline (zero spawns) when the resolved jobs count is 1
    or [n <= 1]. *)

val iter_chunks :
  ?jobs:int -> n:int -> block:int -> (worker:int -> Chunk.t -> unit) -> unit
(** Run one task per chunk of [Chunk.layout ~n ~block].  [worker] indexes
    per-worker scratch (register files, accumulators) and is below
    [resolve_jobs jobs].  Inline when that count is 1 or the grid has
    one chunk. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Ordered map: element [i] of the result is [f arr.(i)] regardless of
    schedule.  Inline [Array.map] when jobs is 1 or the array is short. *)
