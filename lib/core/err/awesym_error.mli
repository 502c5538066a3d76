(** Structured error taxonomy for the AWE pipeline.

    Every recoverable failure in the stack — parse errors, singular
    factorizations, unstable Padé fits, corrupt artifacts, injected
    faults — is described by a single {!t} value carrying a {!kind}
    (the taxonomy bucket recovery policies dispatch on), a site label
    ([where]), a human-readable message, and optional location/context
    payload.  The sweep engine quarantines points by [kind]; the CLI
    renders [t] uniformly; reports embed it via {!to_json}.

    This library sits {e below} every numeric/circuit/awe library so
    that all layers can raise {!Error} directly.  Libraries that keep
    their own typed exceptions (e.g. [Numeric.Lu.Singular], matched by
    existing code and tests) instead {!register} a classifier mapping
    the exception to a [t]; {!classify} folds any exception through the
    registered classifiers, falling back to [Internal]. *)

type kind =
  | Parse  (** malformed netlist / directive / CLI input *)
  | Singular_system  (** exactly singular MNA or Hankel factorization *)
  | Unstable_pade  (** Padé fit degenerate or all poles unstable *)
  | Nonfinite_result  (** NaN/Inf escaped a numeric kernel *)
  | Artifact_corrupt  (** model artifact / cache entry failed validation *)
  | Worker_crash  (** a pool worker died mid-chunk *)
  | Injected_fault  (** raised by the {!Runtime.Fault} harness *)
  | Invalid_request  (** well-formed input asking for something impossible *)
  | Timeout  (** a request's deadline expired before its work ran *)
  | Overloaded
      (** load shed: a bounded queue (e.g. the serve daemon's admission
          queue) was full and the request was rejected unprocessed *)
  | Unavailable
      (** a peer could not be reached: connection refused/reset, socket
          missing, or the network path down.  Retryable with backoff —
          distinct from {!Invalid_request} (a malformed address) and
          {!Worker_crash} (a peer that died mid-conversation) *)
  | No_descent
      (** the optimizer's line search exhausted its backtracking budget
          without finding a decrease — the gradient is numerically zero
          or the model is non-smooth at the iterate.  Not retryable:
          rerunning reproduces the same deterministic trajectory *)
  | Max_iters
      (** the optimizer's iteration budget expired before the
          convergence tolerance was met; the trajectory up to the budget
          is still valid and checkpointed *)
  | Internal  (** unclassified exception; a bug until proven otherwise *)

type t = {
  kind : kind;
  where : string;
      (** site label, dotted path convention: ["lu.factor"],
          ["sweep.point"], ["parser.element"] *)
  message : string;
  file : string option;  (** source file (netlist / artifact path) *)
  line : int option;  (** 1-based line within [file] *)
  condition : float option;
      (** condition-number estimate at the failure site, when known *)
  context : (string * string) list;
      (** free-form key/value payload, e.g. [("order", "8")] *)
}

exception Error of t

val kind_name : kind -> string
(** Stable snake_case name, e.g. ["singular_system"]; used in JSON
    reports and the [AWESYM_FAULTS] cookbook. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}. *)

val all_kinds : kind list
(** Every taxonomy bucket, in declaration order. *)

val make :
  ?file:string ->
  ?line:int ->
  ?condition:float ->
  ?context:(string * string) list ->
  kind ->
  where:string ->
  string ->
  t

val raise_error :
  ?file:string ->
  ?line:int ->
  ?condition:float ->
  ?context:(string * string) list ->
  kind ->
  where:string ->
  string ->
  'a
(** [raise_error kind ~where msg] = [raise (Error (make kind ~where msg))]. *)

val errorf :
  ?file:string ->
  ?line:int ->
  ?condition:float ->
  ?context:(string * string) list ->
  kind ->
  where:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Formatted variant of {!raise_error}. *)

val writing : where:string -> string -> (unit -> 'a) -> 'a
(** [writing ~where file f] runs [f], which writes [file].  A
    [Sys_error] it raises (a missing or non-directory parent, a
    read-only file system, a full disk) becomes [Invalid_request] at
    [where], naming [file] and the system's reason. *)

val to_string : t -> string
(** One-line rendering: ["singular_system at lu.factor: zero pivot at
    column 3 (deck.cir:12) [dim=5]"]. *)

val codec : t Obs.Codec.t
(** The one JSON shape of an error, on the wire and on disk: ["kind"],
    ["where"], ["message"], then the optional payload fields when present
    (["context"] omitted when empty).  An unknown kind does not decode. *)

val to_json : t -> Obs.Json.t
(** [Obs.Codec.encode codec], as sweep reports embed it. *)

val decode :
  ?file:string ->
  kind:kind ->
  where:string ->
  'a Obs.Codec.t ->
  Obs.Json.t ->
  ('a, t) result
(** Decode at a boundary, classifying a failure with the boundary's
    [kind] ([Parse] for serve frames, [Artifact_corrupt] for checkpoints,
    [Invalid_request] for opt requests); the message names the JSON path,
    e.g. ["$.seed: expected an integer"]. *)

val register : (exn -> t option) -> unit
(** Install an exception classifier.  Libraries owning typed exceptions
    call this at module-initialization time; classifiers are consulted
    by {!classify} in LIFO order, first [Some] wins. *)

val classify : exn -> t
(** Fold an arbitrary exception into the taxonomy: [Error t] is
    returned as-is, registered classifiers are tried next, and anything
    unrecognized becomes [Internal] carrying [Printexc.to_string]. *)
