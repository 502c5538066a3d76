(** A circuit netlist: elements, designated input source, designated output.

    Node names are free-form strings; ["0"] (and the aliases ["gnd"],
    ["GND"]) denote ground.  The netlist is an immutable value; [add] returns
    an extended netlist.  Names are indexed in a persistent map, so {!add}
    and {!find} cost O(log n) in the number of elements. *)

type output =
  | Node of string  (** output = v(node) *)
  | Diff of string * string  (** output = v(a) − v(b) *)

type t

val empty : t
val add : t -> Element.t -> t
(** Raises [Invalid_argument] on duplicate element names. *)

val add_all : t -> Element.t list -> t

val with_input : t -> string -> t
(** Designate the named independent source as the analysis input.
    Raises [Invalid_argument] if no such source exists (checked lazily by
    {!input}). *)

val with_output : t -> output -> t

val elements : t -> Element.t list
(** In insertion order. *)

val find : t -> string -> Element.t option
val replace : t -> Element.t -> t
(** Replace the element with the same name, keeping its position; raises
    [Not_found] if absent.  O(n): the element list is rebuilt. *)

val map_elements : (Element.t -> Element.t) -> t -> t

val input : t -> Element.t
(** The designated input source; defaults to the first independent source.
    Raises [Awesym_error.Error] (kind [Invalid_request]) when the
    netlist has no independent source or [.input] names anything else. *)

val output : t -> output
(** Raises [Awesym_error.Error] (kind [Invalid_request]) when no output
    was designated. *)

val output_opt : t -> output option

val nodes : t -> string list
(** All non-ground nodes, in natural order (see {!compare_nodes}). *)

val compare_nodes : string -> string -> int
(** Natural ordering: embedded digit runs compare numerically, so ["a9"]
    precedes ["a10"].  Unknown numbering scrambles chain adjacency and hence
    the bandwidth of MNA matrices — natural order keeps ladder/line/tree
    circuits near-banded, which the sparse solver depends on. *)

val is_ground : string -> bool

val mark_symbolic : t -> string -> Symbolic.Symbol.t -> t
(** [mark_symbolic nl elem_name sym] attaches a symbol to the named element.
    Raises [Not_found] if the element is absent. *)

val symbolic_elements : t -> (Element.t * Symbolic.Symbol.t) list

val stats : t -> int * int
(** [(total_elements, storage_elements)] — the counts the paper quotes for
    the 741 example (170 and 62). *)

val pp : Format.formatter -> t -> unit
