(** Distributions over action profiles (int arrays), with the paper's
    distance. Section 2 defines dist(π, π') = Σ_s |π(s) − π'(s)| — the L1
    (twice total-variation) distance — and ε-implementation in terms of it. *)

type t

val empty : t

val of_list : (int array * float) list -> t
(** Collates duplicates. Negative weights are rejected. Probabilities are
    used as given (call {!normalise} if they do not sum to 1). *)

val normalise : t -> t
(** Scale so the masses sum to 1. @raise Invalid_argument on zero mass. *)

val support : t -> (int array * float) list
(** Sorted by profile (lexicographic); only positive-mass entries. *)

val prob : t -> int array -> float
val mass : t -> float

val l1 : t -> t -> float
(** The paper's dist(π, π'). *)

val tv : t -> t -> float
(** Total-variation distance = l1 / 2. *)

val map_profiles : (int array -> int array) -> t -> t

val deterministic : int array -> t

val product : (int * float) list array -> t
(** Joint distribution of independent per-coordinate distributions. *)

(** Incremental accumulation of empirical outcome distributions across
    Monte-Carlo runs. *)
module Empirical : sig
  type dist := t
  type t

  val create : unit -> t
  val add : t -> int array -> unit
  val count : t -> int
  val to_dist : t -> dist
  (** Normalised empirical distribution. @raise Invalid_argument if empty. *)
end

val pp : Format.formatter -> t -> unit
