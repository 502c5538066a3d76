(** The sweep engine: plan → batched moment evaluation → measures →
    statistics and yield, with per-point fault isolation and
    chunk-granular checkpoint/resume.

    [run] materializes the plan's points as input columns, evaluates the
    model's compiled moment program chunk-by-chunk with the batch kernel
    (bit-identical to a per-point [Model.eval_moments] loop, but one
    instruction dispatch per block; cut by [Slp.select] to the moments
    the measures read, see {!moments_read}), finishes each point with the
    fixed-order Padé fit, extracts the requested performance measures,
    and summarizes.  Everything downstream of the seed is deterministic.

    {2 Fault isolation}

    AWE sweeps hit genuinely bad points: ill-conditioned moment
    matrices, singular MNA factorizations, unstable Padé fits.  Instead
    of dying wholesale, the engine classifies each failure into the
    {!Awesym_error} taxonomy and applies the configured {!policy}:
    failed points are quarantined into {!result.failed} (and the JSON
    report's ["failed_points"] section), statistics and yields are
    computed over the surviving points only, and the quarantine decision
    is a pure function of the data — every [jobs] count quarantines the
    same points and produces byte-identical reports.

    What counts as a point fault: an exception escaping the point's
    evaluation (singular system, degenerate Padé when a ROM-based
    measure was requested, injected fault) or a non-finite compiled
    moment that some requested measure reads (see {!moments_read}): a
    sweep of [m0] and [m1] keeps a point whose [m2] overflows, while a
    sweep with any ROM measure faults it.  A NaN {e measure} from a
    successful model evaluation (e.g. no unity-gain crossing) is a
    property of the circuit, not a fault — it stays in the report and is
    excluded per-measure by {!Stats} as before.

    {2 Checkpoint/resume}

    With [?checkpoint], each completed chunk appends its record as one
    line of an {!Awesymbolic.Checkpoint} file, so a checkpointed sweep
    writes each chunk's bytes once.  Re-running with [~resume:true]
    restores completed chunks bit-exactly — float values travel as
    IEEE-754 bit patterns — and recomputes only the rest, so a resumed
    run's report is byte-identical to an uninterrupted one. *)

type measure =
  | Dc_gain
  | Dc_gain_db
  | Dominant_pole_hz
  | Unity_gain_frequency
  | Phase_margin
  | Delay_50
  | Rise_time
  | Elmore_delay
  | Moment of int  (** The raw compiled moment [m_k], no Padé finish. *)

val measure_name : measure -> string
val measure_of_string : string -> (measure, string) result
(** Accepts the {!measure_name} spellings plus [m0], [m1], … *)

type bound =
  | Le of float  (** pass iff value ≤ limit *)
  | Ge of float  (** pass iff value ≥ limit *)

type spec = { measure : measure; bound : bound }
(** A performance-measure requirement; non-finite values always fail. *)

val spec_of_string : string -> (spec, string) result
(** Parses ["delay_50<=1e-9"] / ["dc_gain>=0.5"] style strings.  A NaN
    limit is an error: no value passes it. *)

val spec_to_string : spec -> string
(** The spelling {!spec_of_string} reads back to the same limit bits:
    the limit as [%g] wherever that is exact, else the shortest of
    [%.15g], [%.16g] and [%.17g] that is.  Reports, keys, the optimize
    request codec and the distributed wire all carry this spelling. *)

val passes : bound -> float -> bool
(** Whether a measure value meets a bound; non-finite values never do. *)

type policy =
  | Fail_fast  (** first fault aborts the sweep ([Awesym_error.Error]) *)
  | Skip  (** quarantine the failing point and move on (default) *)
  | Retry of int
      (** like [Skip], but first retry the failing point/chunk up to the
          given number of extra attempts (> 0) — transient injected
          faults clear on re-execution — and retry a degenerate Padé fit
          at reduced orders [q-1 … 1] before quarantining *)

val policy_name : policy -> string
(** ["fail_fast"], ["skip"], ["retry:N"]. *)

val policy_of_string : string -> (policy, string) result
(** Accepts ["fail_fast"]/["fail-fast"], ["skip"], ["retry"] (two extra
    attempts) and ["retry:N"]. *)

type failed_point = {
  point : int;  (** plan point index, [0 <= point < n] *)
  attempts : int;  (** evaluation attempts consumed, >= 1 *)
  error : Awesym_error.t;  (** the last failure *)
}

type result = {
  seed : int;
  plan : Plan.t;
  n : int;
  order : int;
  policy : policy;
  summaries : (measure * Stats.summary) list;
      (** over surviving points only *)
  spec_yields : (spec * float) list;
      (** Per-spec pass fraction over surviving points. *)
  yield : float option;
      (** Fraction of surviving points passing {e every} spec; [None]
          without specs. *)
  failed : failed_point list;
      (** permanently failed (quarantined) points, ascending by index;
          empty under [Fail_fast] (it raises instead) and on clean
          sweeps.  Points recovered by retries do {e not} appear here —
          they are visible in the Obs counters only, keeping reports
          byte-identical to a fault-free run. *)
}

val survivors : result -> int
(** [n] minus the quarantined count. *)

val default_measures : measure list
(** [Dc_gain; Dominant_pole_hz; Delay_50]. *)

val moments_read : order:int -> measure list -> int array
(** The moments a measure list reads, ascending and each once: [Moment k]
    reads [m_k], [Elmore_delay] reads [m0] and [m1], and every other
    measure fits a ROM and reads all [2·order].  This one rule decides
    which of the model's program outputs a sweep runs ({!prepare}) and
    which non-finite moments fault a point in {!eval_chunk},
    {!point_measures} and the optimizer's gradient. *)

val point_measures :
  Awesymbolic.Model.t -> measure list -> float array -> float list
(** Evaluate measures at a single input point with {e exactly} the
    per-point finish the sweep applies: compiled moments, fixed-order
    Padé fit (shared across the ROM-based measures), one unity-gain
    crossing (shared by [Unity_gain_frequency] and [Phase_margin]), NaN
    for a successful fit with no crossing.  The optimizer's objective goes
    through this, so a sized design point and a sweep visiting the same
    point agree bit for bit.  Raises [Nonfinite_result] on a non-finite
    compiled moment that the measures read ({!moments_read}) and
    [Awe.Pade.Degenerate] on a degenerate fit. *)

val moment_measures :
  Awesymbolic.Model.t -> measure list -> float array -> float list
(** Like {!point_measures} but starting from an already-computed moment
    vector — the deterministic measure finish alone.  The optimizer's
    gradient path perturbs moments along the model's exact sensitivity
    Jacobian and re-finishes through this. *)

(** {2 Staged API}

    {!run} is built from three reusable stages — [prepare] (everything a
    chunk evaluation depends on), [eval_chunk] (one chunk, no shared
    state), [finish] (deterministic merge + statistics) — exposed so the
    distributed coordinator ([Dsweep]) and the serve daemon's
    [sweep_chunk] worker op can execute the {e same} sweep chunk-by-chunk
    across processes and machines.  A [prep] built from equal inputs is
    bit-identical everywhere ([Plan.columns] is jobs-invariant), so
    [eval_chunk prep i] returns the same bytes on any node. *)

type prep
(** Prepared sweep: validated inputs, materialized input columns, the
    deterministic chunk layout, the checkpoint key, and the program the
    chunks run: the model's own when the measures read every moment,
    otherwise [Slp.select] of it cut to {!moments_read}, whose outputs
    have the same bits. *)

val prepare :
  ?seed:int ->
  ?block:int ->
  ?jobs:int ->
  ?measures:measure list ->
  ?specs:spec list ->
  ?policy:policy ->
  Awesymbolic.Model.t ->
  Plan.t ->
  prep
(** Validate and materialize a sweep (defaults as in {!run}).  [jobs]
    only parallelizes column sampling — it never changes the values.
    Raises [Awesym_error.Error] (kind [Invalid_request]) on a [Moment k]
    beyond the model's moments or a non-positive retry count. *)

val prep_key : prep -> string
(** The checkpoint key: hex MD5 binding plan, seed, block, measures,
    specs (their exact spellings), policy, and the model's
    {!Awesymbolic.Model.fingerprint}.  Two preps with equal keys
    evaluate chunks identically; the distributed protocol uses key
    equality as its skew handshake. *)

val prep_points : prep -> int
(** Total points [n]. *)

val prep_num_chunks : prep -> int
(** Number of chunks in the deterministic layout. *)

val prep_block : prep -> int
(** The resolved chunk block size — what a distributed work item must
    carry so the worker rebuilds the very same layout. *)

val prep_measures : prep -> measure list
(** The summarized measure set (requested measures, each once at its
    first occurrence, with spec measures unioned in, in report order). *)

val prep_specs : prep -> spec list
(** The spec list the prep was built with, in request order. *)

val prep_inputs : prep -> float array array
(** The materialized input columns: result[k].(i) is the value of model
    symbol [k] at plan point [i] (every point, every symbol — swept or
    pinned at nominal).  This is the exact block [eval_chunk] slices, so
    a consumer correlating measures back to parameter values (e.g. the
    optimizer's yield re-centering loop, see docs/OPTIMIZE.md) reads the
    very values the kernel saw.  Do not mutate. *)

type chunk_result
(** One evaluated chunk: measure values for its points plus any
    quarantined failures.  Opaque; move it between nodes via
    {!chunk_result_to_json}. *)

val chunk_index : chunk_result -> int
(** Index of this chunk in the prep's layout. *)

val chunk_lo : chunk_result -> int
(** Global index of the chunk's first point. *)

val chunk_len : chunk_result -> int
(** Number of points the chunk covers. *)

val chunk_values : chunk_result -> float array array
(** Measure values: result[m].(i) is measure [m] (in {!prep_measures}
    order) at point [chunk_lo + i]; [nan] rows for quarantined points.
    Do not mutate. *)

val chunk_failures : chunk_result -> int list
(** Global indices of the chunk's quarantined points, ascending. *)

val eval_chunk : prep -> int -> chunk_result
(** Evaluate chunk [i]: batched evaluation of the moments the measures
    read, per-point measure finish, fault policy applied exactly as in
    {!run} (same fault sites, same retry/quarantine decisions — they are
    pure functions of the data; only a non-finite moment some measure
    reads faults a point).  A [Moment k] measure's values are the
    kernel's output column for [m_k]; the per-point finish runs where a
    point needs it: at every point when some measure is not a moment or
    faults are armed, otherwise only at a point with a non-finite read
    moment.  The kernel runs on this domain's batch evaluator, made on
    its first chunk and reused while the program and the block size stay
    the same.  Raises under [Fail_fast] on the first fault, and
    [Invalid_request] on an out-of-range index. *)

val chunk_result_to_json : chunk_result -> Obs.Json.t
(** The checkpoint record shape [{lo; len; vals; failed}], floats as
    IEEE-754 hex bit patterns — byte-exact across the wire. *)

val chunk_result_of_json : ?file:string -> prep -> Obs.Json.t -> chunk_result
(** Decode a chunk record — only the exact shape {!chunk_result_to_json}
    writes: integral [lo]/[len], every value cell the 16 lowercase hex
    digits of [Obs.Codec.hexfloat], error kinds by name, no missing or
    unknown keys — and validate it against the prep's layout (bounds,
    block alignment, measure-row count and length, failed points inside
    the chunk and strictly ascending, as the encoder writes them).
    Raises [Artifact_corrupt] on any mismatch, naming the JSON path of
    the bad node and, for a bad value cell, its point — a hostile or
    stale record cannot scribble outside its chunk or decode to a wrong
    value.  [file] names the source in error messages. *)

val finish : prep -> chunk_result option array -> result
(** Merge chunk results (slot [i] = chunk [i]) and compute statistics.
    The merge is by chunk index, so the result is independent of which
    domain or node produced each chunk; the quarantined points are the
    chunks' own ascending lists, concatenated.  Raises [Internal] if any
    slot is [None], and (kind of the first failure) when every point was
    quarantined. *)

val restore :
  ?checkpoint:string ->
  ?resume:bool ->
  prep ->
  chunk_result option array * (chunk_result -> unit)
(** The checkpoint step of {!run} and the distributed coordinator: one
    slot per chunk, filled for the chunks restored from [checkpoint]
    when [resume] (default false) is set, and the function that appends
    each newly completed chunk to it (thread-safe; [ignore] without
    [checkpoint]).  Raises as {!Awesymbolic.Checkpoint.open_} does, and
    [Artifact_corrupt] naming the line on a record {!chunk_result_of_json}
    rejects or a second record for one chunk. *)

val evaluate :
  ?jobs:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  prep ->
  chunk_result option array
(** {!restore}, then evaluate every chunk not restored across [jobs]
    domains, recording each as it completes: the chunk slots {!finish}
    merges. *)

val run :
  ?seed:int ->
  ?block:int ->
  ?jobs:int ->
  ?measures:measure list ->
  ?specs:spec list ->
  ?policy:policy ->
  ?checkpoint:string ->
  ?resume:bool ->
  Awesymbolic.Model.t ->
  Plan.t ->
  result
(** Default seed 42; [block] is forwarded to [Slp.eval_batch].  [jobs],
    resolved once by [Runtime.resolve_jobs] (capped at the cores, 1 on a
    runtime worker domain), fans sampling, batched moment evaluation,
    and the per-point measure finish across that many domains; the
    determinism contract guarantees the result — and its
    {!to_json} serialization — is bit-identical for every jobs count,
    fault policy decisions included.  A measure requested twice is
    summarized once, and spec measures are automatically added to the
    summarized set.

    [policy] (default {!Skip}) governs fault handling; see the module
    docs for what counts as a fault.  Fault-injection sites crossed per
    point/chunk: ["sweep.point"] (keyed by point index), then
    ["pool.worker"] and ["slp.eval_batch"] (both keyed by chunk start and
    attempt, so a transient fault heals under {!Retry}).

    [checkpoint] names a checkpoint file that gains a line per completed
    chunk.  With [resume = true], a compatible existing checkpoint
    seeds the run: completed chunks are restored bit-exactly and only
    the remainder is evaluated.  A checkpoint written by a different
    (plan, seed, order, block, measures, specs, policy, model) is
    rejected with [Awesym_error.Error] (kind [Invalid_request]); a
    malformed complete line with kind [Artifact_corrupt] naming the
    line; a missing file is simply a fresh start.

    Raises [Awesym_error.Error] (kind [Invalid_request]) on a [Moment k]
    beyond the model's [2·order] moments or when the plan sweeps a
    non-model symbol, and (kind of the first failure) when every point
    of the sweep was quarantined.  Obs counters: [sweep.run.count],
    [sweep.run.points], [sweep.fault.seen], [sweep.fault.retried],
    [sweep.fault.recovered], [sweep.fault.order_reduced],
    [sweep.fault.quarantined], and the [checkpoint.*] counters of
    {!Awesymbolic.Checkpoint}; span [sweep.run]. *)

val schema : string
(** Report schema identifier (["awesymbolic-sweep/2"]), exported so
    [awesym --version] can enumerate every wire/artifact format. *)

val to_json : result -> Obs.Json.t
(** Machine-readable report (schema ["awesymbolic-sweep/2"]), recording
    the seed so any run can be reproduced exactly.  Relative to schema
    /1 it adds ["survivors"], ["policy"], and ["failed_points"] (a list
    of [{point, attempts, error}] objects, error rendered via
    [Awesym_error.to_json]). *)
