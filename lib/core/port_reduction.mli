(** Multiport admittance moment series of the numeric partition.

    The numeric partition's port behaviour is [I(s) = Y(s)·V(s)] with
    [Y(s) = Y⁰ + Y¹·s + Y²·s² + …] (Eq. 9 of the paper).  Column [k] of
    [Yᵐ] is obtained purely numerically: drive port [k] with a unit DC
    voltage (others shorted), run the standard moment recursion on the
    partition's MNA system, and read the port branch currents of the [m]-th
    moment vector.  One sparse LU of the partition suffices for all ports
    and all moments — this is where the bulk of the full-circuit numeric
    work is spent exactly once, never per symbol value. *)

type t = private {
  ports : string array;
  series : Numeric.Matrix.t array;  (** [series.(m) = Yᵐ], port × port *)
}

val compute : ?sparse:bool -> ?jobs:int -> count:int -> Partition.t -> t
(** [count] moment matrices [Y⁰ … Y^{count−1}], from one sparse LU
    ({!Numeric.Sparse}) of the partition's conductance matrix.  [jobs]
    (resolved by [Runtime.resolve_jobs]) fans the per-port moment
    recursions across domains — each port fills its own column of every
    [Yᵐ], so results are identical for every jobs count.  Raises
    [Numeric.Sparse.Singular] when the numeric partition has no DC
    solution (e.g. an internal node with no resistive path once the
    symbolic elements are removed).  [sparse] is ignored, and goes once
    the benchmark stops naming it. *)

val of_netlist : ?jobs:int -> count:int -> ports:string array -> Circuit.Netlist.t -> t
(** Reduce an arbitrary source-free netlist seen from the given port nodes
    (probe sources are attached internally), as {!compute} does the
    partition's.  The building block behind {!Macromodel}. *)

val admittance_at : t -> Numeric.Cx.t -> Numeric.Cmatrix.t
(** Truncated series evaluation [Σ Yᵐ·sᵐ] — for diagnostics and tests. *)
