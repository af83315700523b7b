(** The live backend: each player is a lightweight OCaml 5 effects fiber.

    Where {!Sim.Runner.run} calls process closures as plain functions,
    this backend hosts every process on its own one-shot delimited
    continuation: a player fiber blocks on an [Await] effect until the
    runner delivers it a signal (its start activation or a message),
    reacts, and suspends again. That is all it does: {!run} is
    {!Sim.Runner.run} over the fiber-hosted processes — the simulator's
    own decision loop with the same seeded scheduler — so a live run is
    the simulator's run on the same seed by construction. A run goes to
    completion; [fuel] and [wall_limit] in the config are how a run is
    bounded.

    Kept for one caller: the served-session benchmark's coord5-live
    workload ([Engine.run ~backend:Live]). The benchmark change that
    drops that workload deletes this module (DESIGN.md §14). *)

val run :
  ?slot:('m, 'a) Sim.Runner.Slot.t -> ('m, 'a) Sim.Runner.config -> 'a Sim.Types.outcome
(** The drop-in live equivalent of {!Sim.Runner.run}: same config, same
    per-seed outcome. Spawns one fiber per process, runs
    [Sim.Runner.run ?slot] over the hosted processes, then cancels every
    fiber still blocked (also when the run raises). With [?slot] the
    run recycles the slot's parked driver state ({!Sim.Runner.Slot}). *)
