(** Fraction-free (Bareiss) elimination over the multivariate polynomial
    ring.

    Classical symbolic circuit analysis computes network functions as ratios
    of symbolic determinants; Bareiss elimination keeps every intermediate
    quantity polynomial (each division is exact), avoiding rational-function
    blowup. *)

val det : Symbolic.Mpoly.t array array -> Symbolic.Mpoly.t
(** Determinant of a square polynomial matrix.  Raises [Invalid_argument]
    on non-square input. *)

val solve_cramer :
  Symbolic.Mpoly.t array array ->
  Symbolic.Mpoly.t array ->
  Symbolic.Mpoly.t array * Symbolic.Mpoly.t
(** [solve_cramer a b] returns [(nums, den)] with [xᵢ = numsᵢ/den],
    [den = det a].  Raises [Awesym_error.Error] (kind [Singular_system]
    at [bareiss.solve_cramer]) when the matrix is singular (zero
    determinant). *)
