(** The session backend selector of [Engine.run].

    [Sim] runs a session with {!Sim.Runner.run}, [Live] with {!Live.run},
    which is {!Sim.Runner.run} over fiber-hosted processes, so the two
    produce byte-identical outcomes, traces and deterministic metrics on
    the same seed by construction. Only the served-session benchmark's
    coord5-live workload selects [Live]; everything else in the repo runs
    on the simulator. The benchmark change that drops that workload
    deletes this type (DESIGN.md §14). *)

type t = Sim | Live

val to_string : t -> string
(** ["sim"] or ["live"]. *)
