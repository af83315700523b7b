(** The live backend: each player is a lightweight OCaml 5 effects fiber.

    Where {!Sim.Runner.run} calls process closures as plain functions,
    this backend hosts every process on its own one-shot delimited
    continuation: a player fiber blocks on an [Await] effect until the
    driver delivers it a signal (its start activation or a message),
    reacts, and suspends again. That is all it does: every delivery
    decision is {!Sim.Runner.Driver.decide}, the simulator's own loop
    with the same seeded scheduler, so a live run is the simulator's run
    on the same seed by construction (DESIGN.md §9/§14). Genuine
    concurrency lives one level up: a session in flight is steppable, so
    the session engine ([Engine.run ~backend:Live]) multiplexes an
    in-flight window of them per shard and runs shards on separate pool
    domains.

    A {!t} (and any process built by {!process_of}) is single-domain,
    single-use state: create it, drive it to completion (or {!cancel}
    it) from one domain. *)

exception Cancelled
(** Raised {e inside} a player fiber when its session is torn down
    before the fiber terminated ({!cancel}, or run completion with the
    fiber still blocked). Direct-style programs ({!process_of}) must let
    it propagate: it is the unwind mechanism that releases the
    continuation. *)

type ('m, 'a) t
(** A live session in flight. *)

val start :
  ?slot:('m, 'a) Sim.Runner.Slot.t -> ('m, 'a) Sim.Runner.config -> ('m, 'a) t
(** Spawn one fiber per process (each suspended at its first [Await])
    and create the driver over the hosted processes
    ({!Sim.Runner.Driver.create}: scheduler reset, start signals
    enqueued). No delivery happens until {!step}. With [?slot] the driver
    state recycles the slot's parked storage ({!Sim.Runner.Slot}); only
    hand a slot whose previous session has completed. *)

val step : ('m, 'a) t -> [ `Running | `Done of 'a Sim.Types.outcome ]
(** One {!Sim.Runner.Driver.decide}. On completion every still-blocked
    fiber is cancelled and the outcome is cached; further calls return
    [`Done] with the same outcome. *)

val outcome : ('m, 'a) t -> 'a Sim.Types.outcome option
(** The cached outcome once the session completed, [None] while running. *)

val cancel : ('m, 'a) t -> 'a Sim.Types.outcome
(** Tear a running session down: complete any partially delivered
    mediator batch, drop the rest (conservation holds), cancel all
    blocked fibers and end the run as [Timed_out] — the watchdog path
    taken externally, which is how {!Session.cancel} preempts a convened
    game. On a completed session this is a no-op returning the existing
    outcome. *)

val run : ('m, 'a) Sim.Runner.config -> 'a Sim.Types.outcome
(** [start] + [step] to completion: the drop-in live equivalent of
    {!Sim.Runner.run} — same config, same per-seed outcome. *)

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
    the player ([Halt] is emitted after any buffered effects). The value
    is single-use — build a fresh one per run, as with any stateful
    process. *)
