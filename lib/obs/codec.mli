(** Bit-exact JSON codecs for every wire and disk format.

    A codec describes one shape once — a record as its fields in write
    order, a variant as its cases — and yields both directions.  {b The
    canonical rule:} [decode c] accepts only what [encode c] can write, so
    [decode c j = Ok v] implies [encode c v = j] up to member order.
    Anything else is an {!error} naming the JSON path of the first bad
    node, e.g. ["$.points[0][1]: bad float bits \"3FF0000000000000\""]: a
    missing or unknown key, [null] for an omitted field, a non-integral
    integer, float bits in another spelling, an unknown enum or tag, a
    constant with another value, a value a {!refine} check refuses.

    Decoding never raises; encoding raises [Invalid_argument] only on a
    value the description cannot name (a programming error).  The decoding
    boundary classifies errors, see [Awesym_error.decode]. *)

type 'a t
type step = Json.step = Key of string | Index of int
type error = { path : step list;  (** root first *) message : string }

val encode : 'a t -> 'a -> Json.t
val decode : 'a t -> Json.t -> ('a, error) result

val error_to_string : error -> string  (** ["<path>: <message>"]. *)

(** {1 Primitives} *)

val string : string t

val int : int t  (** An integral number of magnitude at most [2^53]. *)

val num : float t
(** A finite decimal float (non-finite ones are written as [null], which
    is refused).  Decimals round-trip bit-exactly. *)

val hexfloat : float t
(** A float as its IEEE-754 bits in exactly 16 lowercase hex digits — the
    only spelling {!hex} writes — so NaN payloads and signed zeros cross
    bit-exactly. *)

val hex : float -> string  (** What {!hexfloat} writes, for digests and reports. *)

val json : Json.t t  (** Any document, carried opaquely for its consumer. *)

val list : 'a t -> 'a list t
val array : 'a t -> 'a array t

val dict : 'a t -> (string * 'a) list t  (** An object with any keys, in order. *)

val enum : (string * 'a) list -> 'a t  (** A string naming a listed constant. *)

val refine : ('a -> ('b, string) result) -> ('b -> 'a) -> 'a t -> 'b t
(** [refine check forget c] decodes through [c], then [check] (a smart
    constructor's validation, say), whose [Error] is reported at the
    node's path; it encodes through [forget]. *)

(** {1 Records}

    [record make [ f1; f2 ]] writes the fields' members in list order and
    decodes by passing each field's value to [make] in the same order:

    {[
      record (fun model points -> { model; points })
        [ req "model" string (fun e -> e.model);
          req "points" (array (array hexfloat)) (fun e -> e.points) ]
    ]} *)

type ('r, 'f, 'g) field
(** A field of record ['r]; it turns constructor type ['f] into ['g]. *)

type ('r, 'f) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'f, 'g) field * ('r, 'g) fields -> ('r, 'f) fields

val req : string -> 'a t -> ('r -> 'a) -> ('r, 'a -> 'g, 'g) field
(** A required member. *)

val opt : string -> 'a t -> ('r -> 'a option) -> ('r, 'a option -> 'g, 'g) field
(** A member omitted when [None]. *)

val const : string -> Json.t -> ('r, 'g, 'g) field
(** A member that always holds this value ([schema], [ok]); it passes
    nothing to the constructor. *)

val inline : 'a t -> ('r -> 'a) -> ('r, 'a -> 'g, 'g) field
(** The members of an object codec (a record or variant) spliced into
    this record.  Raises [Invalid_argument] on other codecs. *)

val float_pair : string -> ('r -> float) -> ('r, float -> 'g, 'g) field
(** A float as ["name"] (decimal, [null] when non-finite) and
    ["name_hex"] ({!hexfloat}); decoding takes the bits and requires the
    decimal to agree. *)

val write_field : ('r, 'f, 'g) field -> 'r -> (string * Json.t) list
(** The members a field writes, for hand-built encode-only reports. *)

val record : 'f -> ('r, 'f) fields -> 'r t

(** {1 Variants} *)

type 'a case

val case : string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case name c inject project]: the values [project] maps to [Some],
    written as the members of the object codec [c]. *)

val tagged : string -> 'a case list -> 'a t
(** Selected by a tag member: [tagged "op"] writes [{"op": name, ...}]. *)

val marked : 'a case list -> 'a t
(** Untagged: on decode, the first case whose name is a member present in
    the object is selected. *)
