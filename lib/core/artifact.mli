(** On-disk compiled-model artifacts.

    An artifact holds everything a sweep needs to evaluate a compiled model
    without the netlist that produced it: the moment SLP bytecode, the
    symbol table with nominal values, the expansion order, the output
    metadata, and (when present) the closed-form pole/residue program.
    Files carry a magic string, a format {!version}, and an MD5 checksum of
    the payload; floats are stored as IEEE-754 bit patterns so a
    save -> load round-trip is bit-identical. *)

exception Format_error of string
(** Raised by {!of_string}/{!load} on any malformed input: bad magic,
    version mismatch, checksum failure, truncation, or out-of-range
    bytecode. The message states the specific failure. *)

val version : int
(** Current artifact format version. Bumped on any layout change; readers
    reject other versions with a clear {!Format_error}. *)

val magic : string
(** Leading magic bytes identifying an awesym model artifact. *)

type payload = {
  order : int;  (** AWE expansion order of the stored model. *)
  symbol_names : string array;
      (** Free symbols, in the moment program's input-slot order. *)
  nominals : float array;  (** Nominal value per symbol (same order). *)
  output : Circuit.Netlist.output option;
      (** Which netlist quantity the model's transfer function measures. *)
  moment_program : Symbolic.Slp.t;
  closed_program : Symbolic.Slp.t option;
      (** Closed-form pole/residue program: outputs [p; k] for order 1,
          [p1; p2; k1; k2] for order 2, absent otherwise. *)
}

val to_string : payload -> string
(** Serialize with header and checksum (the exact bytes {!save} writes). *)

val of_string : string -> payload
(** Inverse of {!to_string}. Raises {!Format_error} on malformed input. *)

val save : string -> payload -> unit
(** [save path p] writes the artifact to [path] (binary mode).  Raises
    [Awesym_error.Error] (kind [Invalid_request], site [artifact.save])
    naming [path] when it cannot be written. *)

val load : string -> payload
(** [load path] reads and validates an artifact. Raises {!Format_error} on
    malformed content and [Sys_error] on I/O failure. *)
