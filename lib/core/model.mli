(** AWEsymbolic models: the paper's end product.

    [build] runs the one-time analysis — partition, numeric port reduction,
    symbolic moment recursion — and compiles the symbolic moments into a
    straight-line program over the symbol values.  Evaluating the model at a
    point then costs microseconds (program run + a tiny fixed-order Padé
    finish), versus a full AWE analysis of the whole circuit; the results
    are identical to numeric AWE at every point, which the test suite
    asserts and the Table-1 benchmark measures. *)

type t

val build : ?order:int -> ?sparse:bool -> ?jobs:int -> Circuit.Netlist.t -> t
(** Default order 2 (the paper's workhorse).  The netlist must carry at
    least one symbolic element (mark with [Netlist.mark_symbolic], the
    [.symbolic] deck directive, or [Awe.Sensitivity.select_symbols]).
    [~sparse:true] routes the numeric port reduction through the sparse
    solver — the right choice for large interconnect.  [jobs] (resolved by
    [Runtime.resolve_jobs]) parallelizes the numeric port reduction
    across ports; results are identical for every jobs count.  It is
    {!build_many} of the netlist's designated output. *)

val build_many :
  ?order:int ->
  ?sparse:bool ->
  ?jobs:int ->
  Circuit.Netlist.t ->
  outputs:Circuit.Netlist.output list ->
  t list
(** Multi-output analysis: one model per requested output (in order), with
    the expensive stages — partitioning, numeric port reduction, and the
    symbolic elimination — shared across all of them, so each extra output
    costs only a projection and a compile.  Use it when one compiled sweep
    must observe several nodes (e.g. near- and far-end crosstalk from the
    same coupled-line model).  The netlist's own designated output need not
    appear in [outputs].  [jobs] parallelizes the port reduction and the
    per-output program compiles (the symbolic projections stay on the
    calling domain — expression construction is single-domain). *)

val order : t -> int
val symbols : t -> Symbolic.Symbol.t array
(** The model's inputs, in the positional order every evaluation function
    expects. *)

val nominal_values : t -> float array
(** The netlist's element values for each symbol, in {!symbols} order — the
    center point sweeps perturb around.  Preserved across save/load. *)

val output_meta : t -> Circuit.Netlist.output option
(** Which netlist quantity the transfer function measures (the designated
    [.output]), when one was recorded.  Preserved across save/load. *)

val partition_opt : t -> Partition.t option
(** The netlist analysis behind a built model, or [None] for models loaded
    from an artifact — the partition is not serialized. *)

val moment_exprs : t -> Symbolic.Expr.t array
(** The symbolic output moments [m₀ … m_{2q−1}] as expression DAGs. *)

val program : t -> Symbolic.Slp.t
(** The compiled moment program — the paper's "reduced set of operations". *)

val num_operations : t -> int

val values : t -> (string * float) list -> float array
(** Positional value vector from name/value bindings.  Raises
    [Awesym_error.Error] (kind [Invalid_request]) on a missing or unknown
    symbol name. *)

val eval_moments : t -> float array -> float array

val rom : t -> float array -> Awe.Rom.t
(** Reduced-order model at the given symbol values: compiled moments plus a
    fixed-order numeric Padé finish (the paper's small [n×n] LU per
    iteration). *)

val evaluator : t -> float array -> Awe.Rom.t
(** Pre-allocated fast path for tight sweeps; the per-iteration cost the
    paper's Table 1 charges to AWEsymbolic. *)

val closed_form : t -> Closed_form.order2 option
(** Fully symbolic poles/residues (orders 1–2 only; order 1 is padded with
    a zero second branch).  [None] for order ≥ 3. *)

val closed_form_rom : t -> float array -> Awe.Rom.t option
(** Evaluate the closed-form pole/residue program.  [None] when the model
    has no closed form or the discriminant is negative at this point (use
    {!rom} instead). *)

val moments_ratfun : ?count:int -> Circuit.Netlist.t -> Symbolic.Ratfun.t array
(** The same partitioned moment computation carried out over exact rational
    functions — the expanded multi-linear forms of the paper's Eq. (14),
    suitable for display and algebraic inspection. *)

val pp_forms : ?count:int -> Format.formatter -> Circuit.Netlist.t -> unit
(** Print the exact symbolic moments: expanded when small, otherwise in the
    paper's degree-profile shorthand (its Eq. 15 writes a polynomial of
    degree i in x and j in y as [P(xⁱ, yʲ)]). *)

val moment_bounds :
  t -> (string * float * float) list -> Symbolic.Interval.t array
(** Guaranteed enclosures of every compiled moment over the per-symbol
    [(name, lo, hi)] box — the rigorous version of the paper's advice to
    "validate the choice of symbolic elements over the range spanned by the
    symbolic elements".  Conservative (interval arithmetic over-approximates
    shared-term correlations).  Raises [Awesym_error.Error] (kind
    [Invalid_request]) on a missing symbol range, [Division_by_zero] when a
    compiled reciprocal's range spans zero. *)

val elmore_program : t -> Symbolic.Slp.t
(** The Elmore delay estimate [−m₁/m₀] compiled as a symbolic form of the
    model's symbols — the quantity physical-design tools sweep when sizing
    wires and drivers.  Evaluates to the same value as
    [Awe.Measures.elmore_delay (eval_moments t v)]. *)

val zero_program : t -> Symbolic.Slp.t option
(** The model's single finite zero as a compiled symbolic form,
    [z = (k₁p₂ + k₂p₁)/(k₁ + k₂)] from the closed pole/residue DAGs —
    the "zeros" half of the paper's symbolic pole-zero claim.  [None] for
    order-1 models (no finite zero) and orders ≥ 3 (no closed form).
    Evaluates to ±∞ where the residues cancel (the zero escapes to
    infinity) and NaN where the poles go complex. *)

val sensitivity_program : t -> Symbolic.Slp.t
(** Compiled symbolic sensitivities: ∂mₖ/∂symbolⱼ for every moment and every
    symbol, obtained by differentiating the moment DAGs and compiling the
    result (with full sharing against the moment computation).  Output
    layout is row-major: entry [k·n + j] is ∂mₖ/∂symbolⱼ for [n] symbols.
    Built lazily on first use; subsequent calls return the cached program.
    Where {!Awe.Sensitivity} recomputes adjoint solves per circuit point,
    this costs a few hundred float operations per point — the paper's
    compiled-evaluation idea applied to its own Sec. 2.3 machinery. *)

val eval_sensitivities : t -> float array -> float array array
(** [eval_sensitivities t v].(k).(j) = ∂mₖ/∂symbolⱼ at symbol values [v]. *)

val pole_sensitivity_program : t -> Symbolic.Slp.t option
(** Compiled ∂pᵢ/∂symbolⱼ for the closed-form poles (orders 1–2 with a
    closed form only, like {!closed_form}): outputs are ∂p₁/∂symbolⱼ for
    each [j], then ∂p₂/∂symbolⱼ.  [None] when the model has no closed
    form.  NaN at evaluation where the poles go complex. *)

val eval_pole_sensitivities : t -> float array -> (float array * float array) option
(** [(dp1, dp2)] with [dpᵢ.(j) = ∂pᵢ/∂symbolⱼ] at the given point, or
    [None] without a closed form. *)

val time_symbol : Symbolic.Symbol.t
(** The pseudo-symbol (named ["__time"]) that carries the time value in
    {!transient_program} inputs. *)

val transient_program : t -> Symbolic.Slp.t option
(** The paper's symbolic time-domain claim, realized: for orders 1–2 with a
    closed pole/residue form, the unit-step response
    [y(t) = Σ (kᵢ/pᵢ)(e^{pᵢ·t} − 1)] compiles into one program whose inputs
    are the model's symbols followed by {!time_symbol} — Figs. 9–10 of the
    paper are "plotted from the second order symbolic form" exactly this
    way.  [None] for orders ≥ 3 (no closed form); NaN at evaluation when the
    poles go complex at the given symbol values (use {!rom} +
    [Awe.Rom.step] there). *)

val save : t -> string -> unit
(** [save t path] writes the compiled model as a versioned, checksummed
    artifact (see {!Artifact}): moment bytecode, closed-form bytecode,
    symbols, nominal values, order, and output metadata. *)

val load : string -> t
(** Read a model back.  Evaluations ({!eval_moments}, {!rom},
    {!closed_form_rom}, batch sweeps) are bit-identical to the model that
    was saved; symbolic forms are reconstructed from the bytecode so the
    derivative/Elmore/time/frequency programs keep working.  Only
    {!partition_opt} (which returns [None]) and {!moment_bounds} (which
    raises [Awesym_error.Error]) require the original netlist.  Raises
    {!Artifact.Format_error} on corrupted or version-incompatible files. *)

val build_cached :
  ?cache_dir:string ->
  ?order:int ->
  ?sparse:bool ->
  ?jobs:int ->
  Circuit.Netlist.t ->
  t
(** Like {!build}, but consults a content-addressed on-disk cache first
    (keyed by {!Cache.key}: deck text + build options + artifact version)
    and writes the artifact back on a miss, so repeated runs skip the
    one-time analysis.  Cache writes go through {!Cache.atomic_write}
    (temp file + rename), so concurrent builders and crashes never leave a
    half-written entry for later runs to trip over.  Default directory
    {!Cache.default_dir}; corrupt or stale entries are rebuilt silently.
    Obs counters [model.cache.hit] / [model.cache.miss] record the
    outcome. *)

val omega_symbol : Symbolic.Symbol.t
(** The pseudo-symbol (named ["__omega"]) carrying the angular frequency in
    {!frequency_program} inputs. *)

val frequency_program : t -> Symbolic.Slp.t option
(** The frequency-domain counterpart of {!transient_program}: for orders 1–2
    with a closed pole/residue form, compiles
    [H(jω) = Σ kᵢ/(jω − pᵢ) = Σ kᵢ·(−pᵢ − jω)/(pᵢ² + ω²)]
    into a program with inputs [symbols…, ω] and outputs
    [[| Re H; Im H |]] — the mechanism behind the paper's remark that each
    of Figs. 4–7 "was generated by use of the symbolic forms for the poles
    and zeros".  [None] for orders ≥ 3; NaN where the poles go complex. *)
