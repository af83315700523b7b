(** The pluggable transport registry.

    A backend is a way of executing one {!Sim.Runner.config} to an
    outcome. Two ship today: the in-process discrete-event simulator
    ({!Sim.Runner.run} itself) and the effects/domains {!Live} runtime.
    The determinism contract is backend-independent — for any config
    whose [wall_limit] is unset, both backends produce byte-identical
    outcomes, traces and deterministic metrics on the same seed, since
    {!Live.run} is {!Sim.Runner.run} over fiber-hosted processes; the
    {!Differential} harness checks it. *)

type t = Sim | Live

val to_string : t -> string

val of_string : string -> t
(** Accepts ["sim"] and ["live"].
    @raise Invalid_argument on anything else. *)

val run : ?backend:t -> ('m, 'a) Sim.Runner.config -> 'a Sim.Types.outcome
(** Execute one complete history on the chosen backend (default
    [Sim]). *)
