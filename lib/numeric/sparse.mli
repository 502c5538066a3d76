(** Sparse square matrices and a sparse LU solver.

    Circuit MNA matrices are overwhelmingly sparse (a handful of entries per
    row); dense factorization is the dominant cost of large-interconnect
    AWE.  This module provides compressed row storage and a right-looking
    sparse Gaussian elimination with partial pivoting.  No fill-reducing
    ordering is applied — chain/tree-structured circuits (ladders, trees,
    lines) factor with near-zero fill under natural order, which is the
    workload class that needs it. *)

type t

val of_entries : int -> (int * int * float) list -> t
(** [of_entries n entries] builds an [n×n] matrix; duplicate [(i, j)]
    entries accumulate (stamping semantics). *)

val of_dense : Matrix.t -> t
(** Drops exact zeros. *)

val to_dense : t -> Matrix.t
val dims : t -> int
val nnz : t -> int
val mul_vec : t -> float array -> float array

exception Singular of int

type factored

val factor : t -> factored
(** Partial pivoting by magnitude within each column: the pivot is the
    first position holding the strictly largest magnitude, so a zero or
    NaN entry never pivots.  Raises {!Singular} when no pivot exists.

    Rows not yet pivoted wait in buckets keyed by their leading column,
    so column k's pivot search and elimination visit only the rows that
    carry column k.  Column k costs, for each such row, a merge with the
    pivot row and a sort of the merged pattern.  With bounded bandwidth
    that is constant work per column, so a banded matrix (a ladder, a
    line) factors in time linear in its size; scanning every remaining
    row for each column would make it quadratic. *)

val solve : factored -> float array -> float array
val fill_in : factored -> int
(** Non-zeros of L+U minus those of A — a diagnostic for ordering quality. *)

val factors :
  factored -> int array * (int * float) array array * (int * float) array array
(** [(perm, l, u)], copied: [perm.(k)] is the original row at pivot
    position [k]; [l.(k)] holds that row's multipliers (unit diagonal
    implied) and [u.(k)] its entries of U, diagonal first, each sorted by
    column. *)

val health : factored -> Lu.health
(** Pivot/growth statistics of the factorization (same convention as the
    dense {!Lu.health}). *)
