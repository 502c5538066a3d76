(** The composite (global) symbolic system and its moment recursion.

    The numeric partition's admittance moment matrices and the symbolic
    partitions' finite stamps are stenciled into a small global system
    (Eqs. 11–12 of the paper)

    [(Y⁰ + Y¹·s + Y²·s² + …)·V(s) = I₀],

    whose unknowns are the port voltages plus the auxiliary branch currents
    of the input source and of symbolic elements needing them.  Matching
    powers of [s] (Eq. 13) yields the recursion

    [Y⁰·V₀ = I₀],  [Y⁰·Vₖ = −Σ_{j≥1} Yʲ·V_{k−j}].

    The recursion is solved {e fraction free} (Bareiss/Cramer over the
    multivariate polynomial ring): each moment vector has the closed form
    [Vₖ = Pₖ / det(Y⁰)^{k+1}] with polynomial [Pₖ], so intermediate
    expression growth stays polynomial and — unlike naive Gaussian
    elimination over rational functions, whose uncancelled fractions grow
    doubly-exponentially and lose all float precision — the compiled result
    is numerically faithful even when leading minors of [Y⁰] are
    ill-conditioned. *)

type t

val build : Partition.t -> Port_reduction.t -> t
(** Assemble the global moment matrices (entries polynomial in the
    symbols), unit-input RHS, and output selector. *)

val size : t -> int
(** Number of global unknowns (ports + auxiliary currents). *)

val moment_matrix : t -> int -> Symbolic.Mpoly.t array array
(** [moment_matrix t k] is the global [Yᵏ] as stored internally — symmetric
    equilibration and frequency normalization applied (zero matrix beyond
    the truncation). *)

type moments = private {
  det : Symbolic.Mpoly.t;  (** [det Y⁰] *)
  numerators : Symbolic.Mpoly.t array;
      (** [numerators.(k)] is the output-projected [lᵀ·Pₖ]:
          [m̂ₖ = numerators.(k) / det^{k+1}] *)
}

val solve_moments : t -> count:int -> moments
(** Raises [Awesym_error.Error] (kind [Singular_system]) when [Y⁰] is
    singular as a polynomial matrix (the circuit has no DC solution for
    generic symbol values). *)

type raw
(** Unprojected solution: the moment vectors [Pₖ] over all global unknowns
    (plus [det Y⁰]).  One solve serves any number of outputs. *)

val solve_raw : t -> count:int -> raw
(** The expensive part of {!solve_moments}, without the output projection.
    Same failure conditions. *)

val project : t -> raw -> (int * float) list -> moments
(** Apply an output selector (from {!selector_for}) to a raw solution,
    denormalizing the internal frequency scaling. *)

val selector_for : t -> Circuit.Netlist.output -> (int * float) list
(** Selector coefficients for an arbitrary output over the global unknowns
    (equilibration scaling already applied).  Raises [Failure] when the
    output references a node outside the global frame — such nodes must be
    declared when partitioning (see [Partition.make]'s [extra_outputs]). *)

val moments_ratfun : moments -> Symbolic.Ratfun.t array
(** The exact symbolic output moments as rational functions. *)

val moments_expr : moments -> Symbolic.Expr.t array
(** The same moments as expression DAGs ready for compilation; the shared
    [det] subterm is evaluated once in the compiled program. *)

val moments_expr_by_elimination :
  t -> nominal:(Symbolic.Symbol.t -> float) -> count:int ->
  Symbolic.Expr.t array
(** The compiled-path alternative to {!solve_moments}: Gaussian elimination
    over expression DAGs, with every pivot chosen by largest magnitude at
    the [nominal] symbol assignment — genuine partial pivoting, baked into
    the compiled program.  Numerically superior to evaluating the expanded
    Cramer polynomials on systems with strong minor cancellation (e.g. the
    op-amp); accuracy degrades gracefully away from the nominal point, which
    is exactly the regime the paper tells users to validate.  Raises
    [Awesym_error.Error] (kind [Singular_system]) when [Y⁰] is
    numerically singular at the nominal point. *)

val solve_vectors_expr :
  t -> nominal:(Symbolic.Symbol.t -> float) -> count:int ->
  Symbolic.Expr.t array array
(** The elimination path without the output projection:
    [solve_vectors_expr t ~nominal ~count].(k) is the full global moment
    vector [Vₖ] as expression DAGs.  Pair with {!project_expr} to derive
    many outputs from one elimination. *)

val project_expr :
  t -> Symbolic.Expr.t array array -> (int * float) list ->
  Symbolic.Expr.t array
(** Apply an output selector to {!solve_vectors_expr} vectors,
    denormalizing the internal frequency scaling. *)
