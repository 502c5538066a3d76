(** Thin extensions over [Stdlib.Complex] used throughout the simulator. *)

type t = Complex.t = { re : float; im : float }

val zero : t
val one : t
val i : t

val make : float -> float -> t
val of_float : float -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val inv : t -> t
val conj : t -> t
val scale : float -> t -> t

val norm : t -> float
(** Modulus |z|. *)

val arg : t -> float
val sqrt : t -> t
val exp : t -> t
val pow_int : t -> int -> t

val is_real : ?tol:float -> t -> bool
(** True when the imaginary part is below [tol] (default [1e-9]) relative to
    the modulus. *)

val close : ?tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Interleaved storage}

    For loops that keep complex vectors in float arrays, real part at
    index [i] and imaginary part at [i + 1].  Operands and results are
    addressed by array and index, so a call boxes nothing; each reads all
    its operands before it writes, so the destination may alias them.
    Each performs the same floating-point operations in the same order as
    its boxed counterpart, so the results are the same bits. *)

val interleave : t array -> float array
(** [[| z₀; z₁; … |]] as [[| re z₀; im z₀; re z₁; im z₁; … |]]. *)

val deinterleave : float array -> t array
(** The inverse of {!interleave}. *)

val div_into :
  float array -> int -> float array -> int -> float array -> int -> unit
(** [div_into dst d x i y j] stores [div x y] at [dst.(d)], where [x] is
    at [x.(i)] and [y] at [y.(j)]. *)

val pow_int_into : float array -> int -> float array -> int -> int -> unit
(** [pow_int_into dst d z i n] stores [pow_int z n] ([n ≥ 0]) at
    [dst.(d)], where [z] is at [z.(i)]. *)
