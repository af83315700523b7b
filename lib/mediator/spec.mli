(** Mediator-game specifications.

    A spec packages everything needed to play an underlying Bayesian game
    with a mediator (the paper's Γd) and, later, to compile the mediator
    away into cheap talk (Γ_CT):

    - the underlying game Γ;
    - the mediator's function as an arithmetic circuit (the paper's
      "mediator represented by an arithmetic circuit with c gates") from
      the players' encoded types and the mediator's randomness to one
      private recommendation per player;
    - the honest strategy σ_i: encode your type, send it to the mediator,
      play the decoded recommendation (canonical form, Section 2);
    - optionally a punishment action per player (the m-punishment profile
      the AH "wills" carry in Theorems 4.4/4.5) and a default move (the
      default-move approach).

    The spec catalog mirrors {!Games.Catalog} and is shared by the
    examples, the tests and the experiments. *)

type t = {
  name : string;
  game : Games.Game.t;
  circuit : Circuit.t;
  stages : int array array option;
      (** Output reveal schedule for multi-message mediators (one gate per
          player per stage; the last stage is the recommendation; [None] =
          single message). In the mediator game each stage is one mediator
          message; in cheap talk each stage is one gated output reveal. *)
  encode_type : player:int -> int -> Field.Gf.t;
  decode_action : player:int -> Field.Gf.t -> int;
  punishment : (player:int -> type_:int -> int) option;
  default_move : (player:int -> type_:int -> int) option;
}

val create :
  ?punishment:(player:int -> type_:int -> int) ->
  ?default_move:(player:int -> type_:int -> int) ->
  ?stages:int array array ->
  name:string ->
  game:Games.Game.t ->
  circuit:Circuit.t ->
  encode_type:(player:int -> int -> Field.Gf.t) ->
  decode_action:(player:int -> Field.Gf.t -> int) ->
  unit ->
  t
(** Checks circuit arity against the game (n inputs, n outputs). *)

(** {1 Catalog} *)

val coordination : n:int -> t
(** The mediator flips a fair coin and recommends it to everyone. *)

val majority_match : n:int -> t
(** The mediator's coin over {!Games.Catalog.majority_match}: matching the
    coin is an equilibrium a lone deviator cannot poison. *)

val majority_coordination : n:int -> t
(** The mediator computes the majority of the players' type bits. *)

val byzantine_agreement : n:int -> t
(** Same circuit as {!majority_coordination} over the BA game. *)

val chicken_with_bystanders : n:int -> t
(** Players 0 and 1 play Chicken; players 2..n-1 are bystanders with a
    single action and constant payoff who exist to carry the cheap talk
    (k-robust implementation needs n > 4k). The mediator draws a uniform
    trit u and recommends privately: u=0 -> (Dare, Chicken),
    u=1 -> (Chicken, Dare), u=2 -> (Chicken, Chicken). *)

val pitfall_minimal : n:int -> k:int -> t
(** Section 6.4 game with the {e minimally informative} mediator: output
    only the coordination bit b. Punishment = everyone plays bot. *)

val pitfall_naive : n:int -> k:int -> t
(** Section 6.4 game with the {e naive} mediator that first tells player i
    the value a + b·i (mod 2) and only then the recommendation b — the
    leak that lets a coalition holding an even/odd index pair decode b
    early and profitably force the punishment. Realised as a two-stage
    spec: stage 0 reveals the leaks, stage 1 the recommendation (both
    computed from the same mediator coins). *)

val eval_stage_outputs :
  t -> inputs:Field.Gf.t array -> random:Field.Gf.t array -> Field.Gf.t array array
(** Clear evaluation of every stage's outputs (stage x player); a single
    row equal to the circuit outputs when the spec has no stages. *)
