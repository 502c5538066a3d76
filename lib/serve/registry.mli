(** Resident compiled models, keyed by content checksum.

    Requests name a model by artifact path; identity is the MD5 digest of
    the file bytes, so overwriting an artifact in place serves the new
    model on the next request, and distinct paths to identical bytes
    share one entry.  Capacity is a small LRU ({!create}'s [max_models],
    default 8): least-recently-used entries are dropped when a load would
    exceed it.  Obs counters: [serve.registry.hit], [serve.registry.miss],
    [serve.registry.evict]; span [serve.registry.load]. *)

type entry = {
  digest : string;  (** hex MD5 of the artifact bytes — the registry key *)
  path : string;  (** path that first loaded the entry *)
  model : Awesymbolic.Model.t;
  symbols : string array;  (** names, in positional input order *)
  nominals : float array;
  order : int;
  evaluate : float array array -> float array array;
      (** the entry's batch evaluator over the moment program: input
          columns in, moment columns out.  {b Single-owner} (see
          [Slp.make_batch_evaluator]): only the serving domain calls it,
          one batch at a time. *)
  mutable last_used : int;  (** LRU logical clock, managed by {!find} *)
}

type t

val create : ?max_models:int -> unit -> t

val find : t -> string -> (entry, Awesym_error.t) result
(** Resolve an artifact path: digest the file, return the resident entry
    on a checksum hit, else load it (evicting LRU past the cap).
    Errors: [Invalid_request] at [serve.registry], naming the file, for
    an unreadable path; [Artifact_corrupt] (via the registered
    classifier) for a malformed artifact. *)

val loaded : t -> int
(** Resident entry count. *)
