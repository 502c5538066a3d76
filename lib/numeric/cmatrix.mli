(** Dense complex matrices and a complex LU solver.

    Used by AC analysis ([(G + jωC)·x = b]) and by residue computation
    (Vandermonde systems in the complex poles). *)

type t

val create : int -> int -> t
val init : int -> int -> (int -> int -> Cx.t) -> t
val of_real : Matrix.t -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val add_entry : t -> int -> int -> Cx.t -> unit

val mul_vec : t -> Cx.t array -> Cx.t array

val combine : Matrix.t -> Cx.t -> Matrix.t -> t
(** [combine g s c] is the complex matrix [g + s·c] — the AC system matrix at
    complex frequency [s]. *)

exception Singular of int

val solve : t -> Cx.t array -> Cx.t array
(** Gaussian elimination with partial pivoting; raises {!Singular} on
    numerically singular input.  The matrix argument is not modified. *)

val solve_inplace : int -> float array -> float array -> unit
(** [solve_inplace n a x] is {!solve} on interleaved storage (see
    {!Cx.div_into}): [a] holds the [n×n] matrix row-major, entry [(i, j)]
    at [a.(2(i·n + j))] (real) and [a.(2(i·n + j) + 1)] (imaginary), and
    [x] the right-hand side.  Overwrites [x] with the solution and [a]
    with its elimination, allocating nothing per entry; the same
    operations in the same order as {!solve}, so the same bits.  Raises
    {!Singular}. *)

val pp : Format.formatter -> t -> unit
