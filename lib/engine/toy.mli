(** The toy benchmark game: the engine's reference workload.

    An [n]-player one-round exchange: every player broadcasts a
    seed-derived vote at start, and moves (the sum of all votes mod 7)
    once it has heard from everyone, then halts. Every session
    terminates [All_halted] after exactly [n*(n-1)] deliveries plus the
    [n] start signals, so completed-session throughput is directly
    comparable across runs, while the moves (and hence the profile
    distribution) still vary with the seed.

    Configs are the default [Runner.config] (no trace: the engine's
    steady-state mode) with the history-free
    [Scheduler.random_seeded seed], keeping every session a pure
    function of its seed. *)

val config : ?n:int -> seed:int -> unit -> (int, int) Sim.Runner.config
(** Default [n = 4]. [Engine.run ~make:(fun ~seed -> Toy.config ~seed ())]. *)

val profile : int Sim.Types.outcome -> string
(** Termination + moves, via {!Transport.Differential.profile}. *)
