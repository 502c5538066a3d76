(** LU factorization with partial pivoting for real square matrices.

    A factorization is computed once and reused for many right-hand sides —
    the access pattern AWE moment generation depends on (one factor of the MNA
    conductance matrix, one triangular solve per moment). *)

type t

exception Singular of int
(** Raised by {!factor} when no usable pivot exists at the given
    elimination step. *)

type health = {
  dim : int;  (** system size *)
  pivot_min : float;  (** smallest pivot magnitude *)
  pivot_max : float;  (** largest pivot magnitude *)
  growth : float;  (** max |U| over max |A|: element growth of the
                       elimination; large values flag instability *)
  rcond : float;
      (** estimated reciprocal 1-norm condition number,
          [1 / (‖A‖₁·‖A⁻¹‖₁)], from a Hager/Higham LINPACK-style
          estimator (a few extra O(n²) solves at factor time).  In
          [(0, 1]]; values near the unit roundoff mean the factorization
          carries no trustworthy digits.  The sparse backend reports a
          cruder pivot-ratio/growth proxy in the same field. *)
}
(** Numeric-health statistics of a factorization.  Shared with
    {!Sparse}. *)

val health : t -> health

val factor : Matrix.t -> t
(** [factor a] computes [P·a = L·U].  Raises [Invalid_argument] if [a] is not
    square and {!Singular} if [a] is numerically singular. *)

val solve : t -> float array -> float array
(** [solve lu b] solves [a·x = b]. *)

val solve_transpose : t -> float array -> float array
(** [solve_transpose lu b] solves [aᵀ·x = b] using the same factorization —
    the adjoint-system solve used by sensitivity analysis. *)

val solve_matrix : t -> Matrix.t -> Matrix.t
(** Column-by-column solve: [solve_matrix lu b] solves [a·X = b]. *)

val det : t -> float
(** Determinant of the factored matrix (sign includes row exchanges). *)

val inverse : t -> Matrix.t

val size : t -> int

val solve_dense : Matrix.t -> float array -> float array
(** One-shot convenience: factor then solve.  Computes no {!health}
    record — no pivot statistics and no condition estimate, whose solves
    would cost more than the system's own — so the solution bits and the
    {!Singular} column are those of [solve (factor a) b] at a fraction of
    the cost. *)
