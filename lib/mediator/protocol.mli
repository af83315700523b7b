(** The canonical-form mediator game Γd as runnable simulator processes.

    Following Section 2's canonical form: player i opens with an initial
    message (i, 0, x_i) to the mediator; the mediator's r-th message to a
    player is just the round number r, answered by (i, r, x_i); once the
    mediator holds valid, complete message sets from [wait_for] players it
    evaluates its circuit on the received inputs (missing inputs extended
    arbitrarily — here by 0, exactly as in the Lemma 6.8 construction) and
    sends every player a STOP message carrying that player's private
    recommendation, all in one activation (so relaxed schedulers must
    deliver the STOP batch all-or-none, Lemma 6.10). Honest players move
    on the decoded recommendation and halt.

    [rounds = 1] is the weak-implementation variant of Lemma 6.8 (players
    send only their initial message, O(n) messages total); larger [rounds]
    realises the R-round minimally informative strategy whose message
    order lets the mediator cover every scheduler equivalence class. *)

type msg =
  | To_mediator of { round : int; input : Field.Gf.t }
  | Round of int
  | Stop of Field.Gf.t

val pp_msg : Format.formatter -> msg -> unit

val honest_player :
  spec:Spec.t ->
  me:int ->
  type_:int ->
  mediator_pid:int ->
  will:int option ->
  (msg, int) Sim.Types.process
(** The canonical σ_i. [will] is the action left with the executor (AH
    approach); pass the punishment action for Theorem 4.4-style play. *)

val game_processes :
  ?strong:bool ->
  spec:Spec.t ->
  types:int array ->
  rounds:int ->
  wait_for:int ->
  rng:Random.State.t ->
  ?wills:(int -> int option) ->
  unit ->
  (msg, int) Sim.Types.process array
(** n player processes plus the mediator σd at index n. With
    [strong:true] the mediator realises the strong-implementation
    mechanism of Lemma 6.8: its randomness is a deterministic function of
    the order in which the R·n player messages arrived, so the
    scheduler's delivery choices select the outcome class — exactly the
    surjection from message orders onto scheduler equivalence classes the
    lemma constructs (with enough rounds, see
    {!Lemma68.min_padding_rounds}). [wills] defaults to the spec's
    punishment profile if present, otherwise no will. *)
