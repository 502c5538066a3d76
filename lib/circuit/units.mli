(** Engineering-notation number parsing and formatting (SPICE conventions).

    Suffixes (case-insensitive): f p n u m k meg g t.  ["2.2k"] is 2200,
    ["10MEG"] is 1e7, bare scientific notation also parses. *)

val parse : string -> float option
(** A SPICE number: an optional sign, digits with at most one decimal
    point, an optional exponent ([e], an optional sign, digits) and an
    optional suffix.  [None] for anything else, including spellings OCaml
    would read ([0x10], [0x1p10], [1_000], [inf], [nan]), for a value
    that overflows ([1e999]) and for a nonzero literal that underflows to
    zero ([1e-400]). *)

val parse_exn : string -> float
(** Raises [Failure] with a diagnostic on malformed input. *)

val format : float -> string
(** Render with the closest engineering suffix, e.g. [2.2e-12] → ["2.2p"]. *)
