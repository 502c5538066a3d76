(** Sweep plans: which symbols vary, how, and at which points.

    A plan is a set of {e axes} (symbol name + distribution) and a point
    {e kind}.  {!columns} materializes it against a concrete model as one
    column per model input slot, ready for [Slp.eval_batch]; symbols the
    plan does not sweep stay pinned at their nominal values. *)

type axis = { name : string; dist : Dist.t }

type kind =
  | Monte_carlo of int  (** [n] independent draws per axis. *)
  | Latin_hypercube of int
      (** [n] points, one per stratum per axis, axes decorrelated by a
          seeded shuffle — better low-dimension coverage than Monte-Carlo
          at the same [n]. *)
  | Corners
      (** All [2^k] combinations of per-axis {!Dist.bounds} — worst-case
          process corners. *)
  | Grid of int
      (** [n] evenly spaced values per axis over {!Dist.bounds}, full
          cartesian product ([n^k] points). *)

type t = private { kind : kind; axes : axis list }

val make : kind -> axis list -> t
(** Validates the plan: at least one axis, no duplicate names, positive
    point counts, and a size guard on the cartesian kinds ([<= 2^20]
    corners, [<= 10^6] grid points).  Raises [Invalid_argument]. *)

val num_points : t -> int
val kind_name : kind -> string

val columns :
  symbols:string array ->
  nominals:float array ->
  rng:Obs.Rng.t ->
  ?jobs:int ->
  ?block:int ->
  t ->
  float array array
(** [columns ~symbols ~nominals ~rng t] is the structure-of-arrays input
    block: result[k].(i) is the value of [symbols.(k)] at point [i].
    Deterministic given the rng state at every jobs count ([jobs] is
    resolved by [Runtime.resolve_jobs]): chunks of [block] points
    (default 256) sample from jump-ahead copies of the same stream
    ({!Obs.Rng.copy} / {!Obs.Rng.skip}), so every jobs count produces the
    exact sequential values and leaves [rng] in the sequential end state.
    Raises [Awesym_error.Error] (kind [Invalid_request]) naming the
    symbol when an axis is not a model symbol. *)

val codec : t Obs.Codec.t
(** [kind], [points] (which must agree), [axes] ([{symbol, dist}]) and,
    for grids, [per_axis]; decoding revalidates through {!make}.  Floats
    round-trip bit-exactly, so a plan decoded on a distributed-sweep
    worker samples the very same points as the coordinator's. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result  (** The error names the JSON path. *)
