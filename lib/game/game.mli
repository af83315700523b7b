(** Normal-form Bayesian games and the paper's solution concepts.

    A game has n players; player i has a finite type space (its "input")
    and a finite action space; a commonly known joint distribution over
    type profiles; and a utility function from (types, actions) to a payoff
    per player. Strategies map a player's own type to a distribution over
    its actions; coalition deviations map the coalition's joint types to
    joint actions (deviating players share their type information, as in
    Definitions 3.1-3.6).

    The checkers below are exact for small games: they enumerate coalition
    subsets, joint types and pure joint deviations (sufficient by linearity
    of expected utility in the deviation distribution). *)

type t = {
  name : string;
  n : int;
  type_counts : int array;  (** |T_i| for each player *)
  type_dist : (int array * float) list;  (** support of the joint type distribution *)
  action_counts : int array;  (** |A_i| for each player *)
  utility : types:int array -> actions:int array -> float array;
}

val create :
  ?name:string ->
  n:int ->
  type_counts:int array ->
  type_dist:(int array * float) list ->
  action_counts:int array ->
  utility:(types:int array -> actions:int array -> float array) ->
  unit ->
  t
(** Validates shapes, probability mass ~1 and in-range profiles. *)

val complete_information :
  ?name:string ->
  n:int ->
  action_counts:int array ->
  utility:(int array -> float array) ->
  unit ->
  t
(** A game with a single (trivial) type per player. *)

type strategy = int -> (int * float) list
(** Behavioural strategy: own type ↦ action distribution. *)

val pure : int -> strategy
val uniform : int -> strategy
(** [uniform m] mixes uniformly over actions 0..m-1 regardless of type. *)

type profile = strategy array

(** {1 Outcome distributions and expected utility} *)

val outcome_dist : t -> profile -> types:int array -> Dist.t
(** Distribution over action profiles given a fixed type profile. *)

val expected_utilities : t -> profile -> float array
(** Ex-ante expected utility of every player. *)

val expected_utility_given : t -> profile -> coalition:int list -> types_of:int array -> float array
(** The paper's u_i(Γ, σ, x_K): expectation conditioned on the coalition's
    joint types being [types_of] (indexed in the order of [coalition]).
    @raise Invalid_argument if that event has zero probability. *)

(** {1 Solution-concept checkers}

    Each checker returns [Ok ()] or [Error witness] where the witness
    describes a profitable deviation. *)

type witness = {
  coalition : int list;
  coalition_types : int array;
  deviation : int array;  (** joint pure action for the coalition *)
  gains : (int * float) list;  (** player, utility gain *)
  context : string;
}

val pp_witness : Format.formatter -> witness -> unit

val check_k_resilient : ?eps:float -> ?strong:bool -> k:int -> t -> profile -> (unit, witness) result
(** Definition 3.1/3.2 for the underlying (synchronous) game: no coalition
    of size <= k can deviate so that all (resp. some, when [strong]) of its
    members gain more than [eps]. [eps = 0.] checks exact resilience. *)

val check_t_immune : ?eps:float -> t:int -> t -> profile -> (unit, witness) result
(** Definition 3.3/3.5: no set of <= t deviators can lower a non-deviator's
    utility by [eps] or more. *)

val check_robust :
  ?eps:float -> ?strong:bool -> k:int -> t:int -> t -> profile -> (unit, witness) result
(** Definition 3.4/3.6: t-immunity plus k-resilience of (σ_-T, τ_T) for
    every τ_T, enumerated over pure type-dependent deviations of T. *)

val check_punishment :
  m:int ->
  t ->
  punishment:profile ->
  target:(player:int -> coalition:int list -> types_of:int array -> float) ->
  (unit, witness) result
(** Definition 4.3: [punishment] is an m-punishment strategy with respect
    to an equilibrium giving player i the conditional expected utility
    [target ~player ~coalition ~types_of] (the paper's u_i(Γ', σ', σe,
    x_K)): for every coalition K with 1 <= |K| <= m, every joint type x_K
    and every joint action of K, every i in K gets strictly less than the
    target when all the others play the punishment profile. *)

val pp : Format.formatter -> t -> unit
