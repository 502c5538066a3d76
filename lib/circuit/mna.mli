(** Modified nodal analysis (MNA) formulation.

    Builds the descriptor system [(G + s·C)·x = b·u], [y = lᵀ·x] from a
    netlist.  Unknowns are the non-ground node voltages followed by one
    branch current per element that needs an auxiliary equation (V-sources,
    inductors, VCVS, CCVS) — inductors are therefore stamped as impedances
    and everything else in admittance form, exactly as the paper prescribes
    for moment computation.

    Sign conventions: node equations read "sum of currents {e leaving} the
    node equals the current {e injected} by independent current sources";
    an I-source of value [i] injects [i] into its [pos] node.  A V-source of
    value [v] fixes [v(pos) − v(neg) = v]. *)

type index
(** Variable numbering for a netlist: node rows then auxiliary rows. *)

(** [index_of_netlist ?extra_nodes nl] numbers the unknowns.  [extra_nodes]
    forces additional node-voltage unknowns even when no element of this
    netlist touches them (used when stamping a sub-netlist into a larger
    port frame). *)
val index_of_netlist : ?extra_nodes:string list -> Netlist.t -> index
val size : index -> int
val num_nodes : index -> int
val node_row : index -> string -> int
(** Row of a node voltage; [-1] for ground.  Raises [Not_found] for a node
    absent from the netlist. *)

val aux_row : index -> string -> int
(** Row of the branch current of the named element.  Raises [Not_found] if
    the element has no auxiliary current. *)

val node_names : index -> string array
(** [node_names ix].(k) is the node whose voltage is unknown [k]. *)

type entry = { row : int; col : int; coeff : float }
(** A matrix contribution.  Ground rows/columns are already filtered out. *)

type stamp = {
  g_const : entry list;  (** value-independent entries of [G] (incidence) *)
  g_value : entry list;  (** entries of [G] scaled by the element's stamp value *)
  c_value : entry list;  (** entries of [C] scaled by the element's stamp value *)
  b_unit : (int * float) list;
      (** RHS entries for a {e unit} source amplitude (empty for
          non-sources) *)
}

val stamp_of : index -> Element.t -> stamp
(** The element's full MNA stamp.  Raises [Awesym_error.Error] (kind
    [Invalid_request], site [mna.stamp]) when an [F]/[H] card senses an
    element that is not a voltage source (independent or controlled), or
    a [K] card couples an element that is not an inductor, in the
    indexed netlist. *)

type t

val build : Netlist.t -> t
val index : t -> index
val netlist : t -> Netlist.t

val g : t -> Numeric.Matrix.t
(** Dense [G]; materialized lazily on first use and shared thereafter. *)

val c : t -> Numeric.Matrix.t
(** Dense [C]; materialized lazily on first use and shared thereafter. *)

val g_entries : t -> (int * int * float) list
(** Raw accumulated [(row, col, value)] stamp contributions of [G]
    (duplicates unmerged).  Lets sparse consumers assemble directly without
    ever allocating the dense [n×n] form. *)

val c_entries : t -> (int * int * float) list
(** Same for [C]. *)

val g_sparse : t -> Numeric.Sparse.t
(** [G] in compressed sparse form, assembled straight from the stamps. *)

val c_sparse : t -> Numeric.Sparse.t
(** [C] in compressed sparse form, assembled straight from the stamps. *)

val input_vector : t -> float array
(** RHS for unit amplitude at the designated input source. *)

val source_vector : t -> float array
(** RHS with every independent source at its netlist value (for DC and
    transient analysis). *)

val output_vector : t -> float array
(** The selector [l] with [y = lᵀ·x].  Raises [Failure] when the netlist has
    no designated output. *)

val output_of : t -> float array -> float
(** Apply the output selector to a solution vector. *)

val symbolic_system :
  ?all_symbolic:bool ->
  Netlist.t ->
  index * Symbolic.Mpoly.t array array * Symbolic.Mpoly.t array array
  * Symbolic.Mpoly.t array
(** [(ix, gm, cm, b)] with polynomial entries: elements marked symbolic
    contribute [symbol · coeff]; with [~all_symbolic:true] every non-source
    element contributes a fresh symbol named after it (the "pure symbolic"
    mode of classical symbolic analysis).  [b] is the unit-input RHS. *)
