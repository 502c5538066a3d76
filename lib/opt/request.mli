(** The optimizer's wire and artifact layer: one typed request, one JSON
    report, one entry point — shared verbatim by the [awesym optimize]
    CLI and the serve daemon's [optimize] op, which is what makes their
    outputs byte-identical.

    Requests and reports carry schema {!schema}
    (["awesymbolic-opt/1"]).  Report floats appear twice: a readable
    ["name"] field (JSON renders non-finite as null) and a ["name_hex"]
    field holding the IEEE-754 bit pattern — the determinism contract is
    on the whole report string, hex fields included.

    {2 Checkpointing}

    [run ~checkpoint:path] rewrites [path] (atomically, via
    [Cache.atomic_write]) after every completed sizing restart / yield
    iteration, and a final time with the finished report embedded.  The
    file carries {!key} — a digest binding the request JSON and the
    model's shape — so [~resume:true] restores only a checkpoint written
    by the {e same} optimization: completed units are restored
    bit-exactly and only the rest is computed, making a resumed run's
    report byte-identical to an uninterrupted one.  Park checkpoints in
    the cache directory with a [.opt] extension and [Cache.gc] ages them
    out with the other artifacts. *)

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

val key : Awesymbolic.Model.t -> t -> string
(** Hex digest binding the request (its canonical JSON) and the model's
    shape (order, program size, symbols, nominal bit patterns) — the
    checkpoint handshake, recorded in every report. *)

val check_require : require:bool -> Obs.Json.t -> unit
(** With [require = true], raise the classified [Max_iters] /
    [No_descent] error matching the report's [status] field (no-op on a
    converged report or [require = false]).  The CLI applies this
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
  Obs.Json.t
(** Execute the request and return the report.  [jobs]/[block] are
    execution knobs only (yield-mode sweep fan-out; sizing evaluates
    single points) — the determinism contract guarantees they never
    change the report bytes.  With [require = true] a sizing run whose
    best restart did not converge raises [Awesym_error.Error] with kind
    [Max_iters] or [No_descent] ({e after} the final checkpoint write,
    so the trajectory survives for inspection).  Obs: counter
    [opt.requests], [opt.checkpoint.restored]; span [opt.run]. *)
