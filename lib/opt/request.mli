(** The optimizer's wire and artifact layer: one typed request, one typed
    report, one entry point — shared verbatim by the [awesym optimize]
    CLI and the serve daemon's [optimize] op, which is what makes their
    outputs byte-identical.

    Requests and reports carry schema {!schema}
    (["awesymbolic-opt/1"]), each through one codec.  Report floats
    appear twice: a readable ["name"] field (JSON renders non-finite as
    null) and a ["name_hex"] field holding the IEEE-754 bit pattern — the
    determinism contract is on the whole report string, hex fields
    included.

    {2 Checkpointing}

    [run ~checkpoint:path] appends each completed sizing restart / yield
    iteration to [path] as one line of an {!Awesymbolic.Checkpoint}
    file; no report is stored.  The header carries {!key} — a digest
    binding the request JSON and the model's shape — so [~resume:true]
    restores only a checkpoint written by the {e same} optimization:
    completed units are restored bit-exactly and only the rest is
    computed, and with every unit present the report is rebuilt from
    them as an uninterrupted run builds it — a resumed run's report is
    byte-identical to an uninterrupted one.  Units must appear in the
    order the run writes them; a repeated, skipped or surplus unit is
    [Artifact_corrupt] naming its line.  Park checkpoints in the cache
    directory with a [.opt] extension and [Cache.gc] ages them out with
    the other artifacts. *)

type t =
  | Size of Sizing.config
  | Yield of Recenter.config

val schema : string
(** ["awesymbolic-opt/1"]. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> t
(** Inverse of {!to_json} (floats round-trip bit-exactly), accepting only
    what it writes: every field present, integers integral, specs and
    goal in their canonical spelling.  Raises [Awesym_error.Error] (kind
    [Invalid_request]) naming the JSON path of the first bad node — the
    serve daemon folds that into a classified error reply. *)

val restart_codec : Sizing.restart Obs.Codec.t
val iteration_codec : Recenter.iteration Obs.Codec.t
(** Checkpoint units — a finished sizing restart, a yield iteration —
    with floats as readable + ["_hex"] pairs ({!Obs.Codec.float_pair}). *)

type size_report = {
  key : string;  (** {!key} of the request *)
  status : Sizing.status;  (** the best restart's *)
  best : int;  (** index of the best restart *)
  seed : int;
  restarts : int;
  max_iters : int;
  step : float;
  tol : float;
  objective : float;  (** the best restart's final objective *)
  variables : (string * float) list;  (** axis name, sized value *)
  measures : (string * float) list;
      (** the objective's measures at the sized point; empty when the
          point does not evaluate *)
  runs : Sizing.restart list;
}

type yield_report = {
  key : string;
  seed : int;
  points : int;
  iters : int;
  shrink : float;
  initial_yield : float;
  final_yield : float;
  improved : bool;  (** [final_yield > initial_yield] *)
  final_axes : Sweep.Plan.axis list;
  iterations : Recenter.iteration list;
}

type report = Size_report of size_report | Yield_report of yield_report

val report_to_json : report -> Obs.Json.t

val report_of_json : Obs.Json.t -> report
(** Inverse of {!report_to_json}, accepting only what it writes.  Raises
    [Awesym_error.Error] (kind [Parse], site [opt.report]) naming the
    JSON path of the first bad node — how [awesym optimize --remote]
    reads the daemon's report. *)

val key : Awesymbolic.Model.t -> t -> string
(** Hex digest binding the request (its canonical JSON) and the model's
    shape (order, program size, symbols, nominal bit patterns) — the
    checkpoint handshake, recorded in every report. *)

val check_require : require:bool -> report -> unit
(** With [require = true], raise the classified [Max_iters] /
    [No_descent] error matching a size report's [status] (no-op on a
    converged or yield report, or [require = false]).  The CLI applies this
    {e after} emitting the report to [--json], so the trajectory is
    always written before the non-convergence exit — on the local and
    remote paths alike. *)

val run :
  ?jobs:int ->
  ?block:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?require:bool ->
  Awesymbolic.Model.t ->
  t ->
  report
(** Execute the request and return the report.  [jobs]/[block] are
    execution knobs only (yield-mode sweep fan-out; sizing evaluates
    single points) — the determinism contract guarantees they never
    change the report bytes.  With [require = true] a sizing run whose
    best restart did not converge raises [Awesym_error.Error] with kind
    [Max_iters] or [No_descent] ({e after} the last unit is checkpointed,
    so the trajectory survives for inspection).  Obs: counter
    [opt.requests] and the [checkpoint.*] counters; span [opt.run]. *)
