(** Minimal JSON documents: emission (compact and pretty) plus a strict
    parser, used for Chrome traces, counter snapshots and bench reports. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line serialization.  Non-finite numbers become [null]. *)

val to_string_pretty : t -> string
(** Indented serialization with a trailing newline, for committed files. *)

val to_file : string -> t -> unit
(** Write the pretty form to [path]. *)

type step = Key of string | Index of int
(** One step into a document: an object member or an array element. *)

val path_to_string : step list -> string
(** Root-first path in ["$.points[0][1]"] form. *)

val of_string : string -> (t, string) result
(** Parse a complete RFC 8259 document, never raising.  Rejected: numbers
    outside the RFC grammar ([+1], [.5], [01], [1.]) or beyond the float
    range ([1e999]), raw control characters in strings, [\u] escapes
    that are not exactly four hex digits, unpaired surrogates, duplicate
    object keys, and nesting deeper than 512.  [Error] names the path of
    the offending node and the byte offset:
    ["$.id: bad \u escape (want four hex digits) at offset 47"]. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing fields. *)
