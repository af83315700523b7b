(** The live backend: each player is a lightweight OCaml 5 effects fiber.

    Where {!Sim.Runner.run} calls process closures as plain functions,
    this backend hosts every process on its own one-shot delimited
    continuation: a player fiber blocks on an [Await] effect until the
    runner delivers it a signal (its start activation or a message),
    reacts, and suspends again. That is all it does: {!run} is
    {!Sim.Runner.run} over the fiber-hosted processes — the simulator's
    own decision loop with the same seeded scheduler — so a live run is
    the simulator's run on the same seed by construction (DESIGN.md
    §9/§14). A run goes to completion; [fuel] and [wall_limit] in the
    config are how a run is bounded. Concurrency lives one level up:
    the session engine ([Engine.run ~backend:Live]) runs each shard's
    sessions one after another and shards on separate pool domains.

    Processes built by {!process_of} are single-domain, single-use
    state: build them, run them once, from one domain. *)

exception Cancelled
(** Raised {e inside} a player fiber that is still blocked when its run
    ends (a watchdog, a relaxed stop, or quiescence with the fiber
    waiting for a message that never comes): {!run} discontinues every
    such fiber — direct-style programs started by the run included —
    after the outcome is taken. Direct-style programs ({!process_of})
    must let it propagate: it is the unwind mechanism that releases the
    continuation. *)

val run :
  ?slot:('m, 'a) Sim.Runner.Slot.t -> ('m, 'a) Sim.Runner.config -> 'a Sim.Types.outcome
(** The drop-in live equivalent of {!Sim.Runner.run}: same config, same
    per-seed outcome. Spawns one fiber per process, runs
    [Sim.Runner.run ?slot] over the hosted processes, then cancels every
    fiber still blocked (also when the run raises). With [?slot] the
    run recycles the slot's parked driver state ({!Sim.Runner.Slot}). *)

(** {1 Direct-style player programs}

    The fiber substrate doubles as a programming model: instead of a
    state machine in closures ({!Sim.Types.process}), write a player as
    sequential code that blocks on [recv]. The resulting process value
    runs on {e either} backend — on the simulator it is an ordinary
    process whose blocking points are hidden behind the effect handler. *)

type ('m, 'a) api = {
  recv : unit -> Sim.Types.pid * 'm;
      (** Block until the environment delivers the next message;
          buffered [send]/[move] effects are flushed to the driver at
          this point, in call order. *)
  send : Sim.Types.pid -> 'm -> unit;  (** Buffer a message send. *)
  move : 'a -> unit;  (** Buffer the one-shot game move. *)
}

val process_of :
  ?will:(unit -> 'a option) -> (('m, 'a) api -> unit) -> ('m, 'a) Sim.Types.process
(** Wrap a sequential player program as a process. The program starts
    when the driver delivers the start signal; returning from it halts
    the player ([Halt] is emitted after any buffered effects). Under
    {!run}, a program still blocked in [recv] when the run ends gets
    {!Cancelled} there; under {!Sim.Runner.run} it stays suspended. The
    value is single-use — build a fresh one per run, as with any
    stateful process. *)
