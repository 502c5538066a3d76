(** Dense real matrices, row-major.

    All indices are zero-based.  Dimensions are fixed at creation; operations
    that combine matrices raise [Invalid_argument] on dimension mismatch. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix of the given shape. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)

val identity : int -> t

val of_arrays : float array array -> t
(** Rows must all have the same length; the input is copied. *)

val to_arrays : t -> float array array

val to_flat : t -> float array
(** A row-major copy of the entries: entry [(i, j)] is at [i * cols + j]. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add_entry : t -> int -> int -> float -> unit
(** [add_entry m i j x] accumulates [x] into entry [(i, j)] — the stamping
    primitive used by MNA assembly. *)

val copy : t -> t
val transpose : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t

val mul_vec : t -> float array -> float array
(** [mul_vec m v] is the matrix–vector product [m · v]. *)

val mul_vec_transpose : t -> float array -> float array
(** [mul_vec_transpose m v] is [mᵀ · v] without forming the transpose. *)

val column : t -> int -> float array
val row : t -> int -> float array

val map : (float -> float) -> t -> t

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison within absolute tolerance [tol] (default [1e-12]). *)

val pp : Format.formatter -> t -> unit
