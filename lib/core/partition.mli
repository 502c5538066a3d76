(** Moment-level circuit partitioning (Sec. 2.4 of the paper).

    The circuit is split into one {e symbolic partition} per symbolic
    element — whose admittance expansion [G + s·C] is finite — and one
    {e numeric partition} holding everything else.  The two meet at the
    {e ports}: every non-ground node adjacent to a symbolic element, plus
    the input source terminals and the output nodes, which "must be
    preserved". *)

type t = private {
  netlist : Circuit.Netlist.t;  (** the original circuit *)
  symbolic : (Circuit.Element.t * Symbolic.Symbol.t) list;
  symbols : Symbolic.Symbol.t array;
      (** distinct symbols, sorted by name (two elements may share one
          symbol, e.g. the paper's symmetric line drivers) *)
  companions : Circuit.Element.t list;
      (** numeric elements that must nevertheless live in the global system
          because a symbolic element references their auxiliary branch
          currents — e.g. the inductors coupled by a symbolic mutual
          inductance.  Closed transitively. *)
  ports : string array;  (** sorted port node names, all non-ground *)
  numeric : Circuit.Netlist.t;
      (** the numeric partition, with a grounded 0-V source ["__port_<n>"]
          attached to every port so its multiport admittance moments can be
          extracted *)
  input : Circuit.Element.t;  (** the designated input source *)
}

val make : ?extra_outputs:Circuit.Netlist.output list -> Circuit.Netlist.t -> t
(** Raises [Awesym_error.Error] (kind [Invalid_request]) when the netlist
    has no symbolic elements, marks a source symbolic, or contains a
    driving independent source other than the designated input
    (superposition of multiple sources is out of scope for the symbolic
    path).
    [extra_outputs] forces additional observation nodes into the port set so
    a single partition can serve several outputs (see [Model.build_many]). *)

val nominal : t -> Symbolic.Symbol.t -> float
(** The symbol's nominal value: the stamp value of the (first) element
    carrying it in the original netlist.  Used to pick numerically sound
    pivots when the symbolic system is eliminated.  Raises [Not_found] for
    foreign symbols. *)

val port_source_name : string -> string
(** Name of the probe source attached to a port node. *)

val num_ports : t -> int
val pp : Format.formatter -> t -> unit
