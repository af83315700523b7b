(** The Section 6.1 coordination machinery between deviating players and
    the environment: even though the scheduler cannot read message
    payloads, a player can signal an integer to it by sending that many
    empty messages to itself, and the scheduler can signal back by
    choosing how many of a pre-announced burst of self-messages to
    deliver. These constructions underpin Propositions 6.1/6.2 (the
    adversary may be treated as a single entity) and Corollary 6.3
    (robust profiles are scheduler-proof); experiment E8 exercises them. *)

val signal_effects : value:int -> me:int -> 'm -> ('m, 'a) Sim.Types.effect list
(** Effects encoding [value] to the scheduler: [value] copies of a dummy
    self-message. *)

val read_signal : from:int -> Sim.Scheduler.pattern_event list -> int
(** Decode the most recent self-message burst of player [from] out of the
    pattern history (count of consecutive self-sends, newest burst). *)

val signalling_scheduler :
  on_signal:(int -> unit) -> inner:Sim.Scheduler.t -> Sim.Scheduler.t
(** Wraps a scheduler: watches the pattern history for self-message bursts
    and reports each newly completed burst's size via [on_signal], then
    delegates the actual decision to [inner]. The self-messages themselves
    are delivered normally. The wrapper declares [Scheduler.t.history],
    whatever [inner] declares: it reads the history itself. *)
