(** Univariate polynomials over {!Gf}.

    Coefficients are stored lowest-degree first; the representation is kept
    normalised (no trailing zero coefficients), so [degree] is O(1) and the
    zero polynomial has degree -1. *)

type t

val zero : t
val one : t

val of_coeffs : Gf.t array -> t
(** Build from little-endian coefficient array (index i = coefficient of x^i).
    Trailing zeros are stripped. The array is copied. *)

val coeffs : t -> Gf.t array
(** Little-endian coefficients; [||] for the zero polynomial. Fresh copy. *)

val coeff : t -> int -> Gf.t
(** [coeff f i] is the coefficient of x^i (zero beyond the degree). *)

val const : Gf.t -> t

val degree : t -> int
(** Degree; -1 for the zero polynomial. *)

val is_zero : t -> bool
val equal : t -> t -> bool

val eval : t -> Gf.t -> Gf.t
(** Horner evaluation. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val scale : Gf.t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] returns (q, r) with a = q·b + r and deg r < deg b.
    @raise Division_by_zero if [b] is zero. *)

val interpolate : (Gf.t * Gf.t) list -> t
(** Lagrange interpolation through the given (x, y) points. The x values
    must be pairwise distinct (checked). Result has degree < number of
    points. @raise Invalid_argument on duplicate x. *)

val random : Random.State.t -> degree:int -> t
(** Uniformly random polynomial of degree exactly at most [degree] (each of
    the [degree+1] coefficients uniform). *)

val random_with_secret : Random.State.t -> degree:int -> secret:Gf.t -> t
(** Random polynomial f with f(0) = [secret] and deg f <= degree, as used by
    Shamir sharing. *)

val pp : Format.formatter -> t -> unit
