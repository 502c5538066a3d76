(** Straight-line-program compilation of expression DAGs.

    This realises the paper's central performance idea: "the symbolic form
    provides a compiled set of operations which can quickly produce a final
    AWE approximation, where the operands are the values of the symbols."
    A compiled program evaluates a whole family of outputs (moments, Padé
    coefficients, poles, residues, …) with one pass over a float register
    file — no allocation, no tree walking.  Compilation runs an optimizer
    (constant folding, dead-code elimination, linear-scan register reuse)
    so the shipped program is the compact form sweeps iterate over;
    {!num_instructions} and {!num_registers} report the optimized sizes. *)

type t

type instr =
  | Load_input of int * int  (** [reg <- inputs.(slot)] *)
  | Add of int * int * int  (** [reg <- reg + reg] *)
  | Mul of int * int * int
  | Neg of int * int
  | Inv of int * int
  | Sqrt of int * int
  | Exp of int * int
      (** The bytecode, public so model artifacts can serialize programs
          (see [Awesymbolic.Artifact]).  Destination register first. *)

val compile : ?optimize:bool -> inputs:Symbol.t array -> Expr.t array -> t
(** [compile ~inputs outputs] compiles the DAG rooted at [outputs].
    Hash-consing sharing in {!Expr} becomes common-subexpression elimination
    for free.  The optimization passes (on by default; [~optimize:false]
    keeps the raw SSA form) never change results: folded constants are
    computed with the interpreter's own float operations, so optimized and
    unoptimized programs are bit-identical point for point.  Raises
    [Invalid_argument] if an output mentions a symbol not listed in
    [inputs]. *)

val optimize : t -> t
(** Re-run the optimization pipeline on an existing program: constant
    folding, dead-code elimination, then linear-scan register allocation
    that recycles a register as soon as its last consumer has run.
    Idempotent; evaluation results are bit-identical. *)

val inputs : t -> Symbol.t array
val num_outputs : t -> int
val num_instructions : t -> int
(** Operation count of the compiled form — the paper's "reduced set of
    operations" size. *)

val num_registers : t -> int

val instructions : t -> instr array
(** A copy of the instruction stream, for serialization and inspection. *)

val init_registers : t -> float array
(** A copy of the initial register file (preloaded constants). *)

val output_registers : t -> int array
(** A copy of the output register indices. *)

val of_parts :
  inputs:Symbol.t array ->
  instrs:instr array ->
  init:float array ->
  outputs:int array ->
  t
(** Reassemble a program from its serialized parts (inverse of
    {!instructions}/{!init_registers}/{!output_registers} plus {!inputs}).
    Validates every register index and input slot; raises
    [Invalid_argument] on out-of-range references so corrupted artifacts
    fail loudly instead of evaluating garbage. *)

(** {1 Evaluation backends}

    Programs evaluate through one of two backends: the built-in bytecode
    {e interpreter} (always available) or {e native} kernels produced by
    an installed code generator ([Codegen] emits OCaml, compiles a
    [.cmxs] and dynlinks it; see docs/CODEGEN.md).  Dispatch happens
    behind {!eval} / {!make_evaluator} / {!eval_batch} /
    {!make_batch_evaluator}, and the backend contract is {b bit-for-bit
    identity}: whichever backend runs, every output of every point has
    the same IEEE-754 bit pattern — including [-0.0] and infinities,
    and every NaN output is [Float.nan] — so switching backends can
    never change a result, only its cost.  Native kernels run only when
    [Native] is selected and a provider delivers them. *)

type backend =
  | Interp  (** the bytecode interpreter (the default) *)
  | Native  (** native kernels when the provider delivers, else interpret *)

val set_backend : backend -> unit
(** Select the process-wide backend (default [Interp]).  Programs memoize
    their native kernels, so flipping the backend between calls is
    cheap; [Interp] bypasses the memo entirely and costs one branch. *)

val current_backend : unit -> backend

val backend_name : backend -> string
(** ["interp"] or ["native"] — the CLI / serve-stats spelling. *)

type native_kernels = {
  native_eval : float array -> float array -> unit;
      (** [native_eval values out] writes the outputs for one point. *)
  native_batch : float array array -> float array array -> int -> int -> unit;
      (** [native_batch inputs outs lo len] fills output columns over the
          lane range [\[lo, lo+len)] of SoA input columns. *)
}
(** What a code generator must deliver for a program.  Kernels must be
    bit-identical to the interpreter and are called only after the entry
    points have validated shapes. *)

val set_native_provider : (t -> native_kernels option) option -> unit
(** Install (or remove) the native-kernel provider.  The provider is
    consulted once per program (memoized; failures are memoized only
    when a provider was present) and must classify and contain its own
    errors, returning [None] to decline — a raising provider is treated
    as declining.  [Codegen.install] is the canonical caller. *)

val digest : t -> string
(** Canonical hex digest of the program — instruction stream, constant
    bit patterns, input arity and output registers (input {e names} are
    excluded: they do not affect evaluation).  Memoized.  The codegen
    cache keys compiled kernels by this digest. *)

val eval : t -> float array -> float array
(** [eval p values] runs the program with [values.(k)] bound to
    [inputs.(k)].  Allocates the register file; for tight loops use
    {!make_evaluator}.  [eval] and {!make_evaluator} interpret the
    instruction stream exactly as serialized, so they are the reference
    the batch kernel is tested against. *)

val make_evaluator : t -> float array -> float array
(** [make_evaluator p] returns a closure reusing one preallocated register
    file and one output buffer across calls — the per-iteration cost Table 1
    of the paper measures.

    {b Aliasing contract:} every call returns the {e same} output array,
    overwritten in place by the next call.  Callers that retain results
    across calls (sweep loops, statistics accumulators) must copy the array
    — e.g. [Array.copy (run v)] — before evaluating the next point; see the
    regression test [slp aliasing contract] in [test_symbolic.ml]. *)

val default_block : int
(** Lane count per block when [?block] is omitted (256) — shared by every
    chunked stage so sweep chunk grids line up with the batch kernel's. *)

val eval_batch :
  ?block:int -> ?jobs:int -> t -> float array array -> float array array
(** [eval_batch p cols] evaluates the program at [n] points in one call:
    [cols.(k).(i)] is the value of input [k] at point [i] (all columns must
    share the same length [n]), and [(eval_batch p cols).(j).(i)] is output
    [j] at point [i].  Points are processed in blocks of [block] lanes
    (default 256) over one structure-of-arrays register file, so instruction
    dispatch amortizes across the block and the file stays cache-resident —
    the fast path under Monte-Carlo and corner sweeps.

    [jobs] (default [Runtime.default_jobs ()]) fans the blocks across that
    many domains, each with a private register file.  Blocks cover disjoint
    point ranges and every lane runs the scalar operation sequence, so the
    result is bit-identical for every jobs count — and to calling {!eval}
    point by point.  [jobs = 1] (or [n <= block]) takes the sequential path
    with zero domain involvement.

    The interpreter runs a private execution form, lowered from the
    instruction stream on the first batch evaluation and memoized on the
    program.  A [Neg] read only by [Add]s is dropped and its readers
    subtract instead ([x + (-y)] is [x - y] in IEEE 754, and
    [(-x) + (-y)] is [(-x) - y]); a [Neg] read by anything else, by an
    output, or whose source register is rewritten before a reader runs
    stays.  Operands read from preloaded registers become scalar
    constants, so a block refills only the registers still read as
    vectors before being written.  Neither rewrite moves a bit of any
    output.  The serialized form, {!digest}, artifacts and the native
    emitter never see the lowered form.  The Obs counter
    [slp.eval_batch.dispatched] counts points × lowered instructions
    beside [slp.eval_batch.ops] (points × serialized instructions).

    The returned arrays are freshly allocated (no aliasing).  Raises
    [Invalid_argument] on column-length mismatch, a wrong column count, or
    a program with no inputs. *)

val make_batch_evaluator :
  ?block:int -> ?jobs:int -> t -> float array array -> float array array
(** Pre-allocates the blocked register files once ([jobs] of them, resolved
    at creation) and returns the batch evaluation closure — {!eval_batch}
    is [make_batch_evaluator] applied immediately.  Unlike
    {!make_evaluator}, returned output columns are fresh on every call.

    {b Ownership contract:} the closure's register files are
    {e single-owner} — one call at a time.  Two overlapping calls from
    different domains would interleave writes into the same lanes, so the
    closure latches a busy flag and the losing call raises
    [Invalid_argument] instead of corrupting both results (enforced by the
    [batch evaluator is single-owner] test in [test_symbolic.ml]).
    Callers that evaluate concurrently — e.g. the serve scheduler — must
    keep one evaluator per owning domain; note each evaluator already fans
    its own blocks across [jobs] domains internally, so a single owner
    still saturates the pool. *)

val to_exprs : t -> Expr.t array
(** Reconstruct the output expression DAGs from the bytecode (the inverse of
    {!compile} up to the smart constructors' algebraic normalization).
    Loaded model artifacts use this to recover symbolic forms — derivative
    and closed-form programs can then be rebuilt without the original
    netlist. *)

val pp : Format.formatter -> t -> unit
(** Disassembly, for debugging and documentation. *)

val eval_interval : t -> Interval.t array -> Interval.t array
(** Run the program over interval inputs, producing guaranteed (conservative)
    enclosures of every output for all input values in the box.  Raises
    [Division_by_zero] when some reciprocal's argument interval spans zero
    and [Invalid_argument] on a square root of a partially negative
    interval. *)
