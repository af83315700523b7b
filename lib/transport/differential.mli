(** Canonical renderings of an outcome.

    [outcome_repr] is what the live-vs-sim tests and the golden digests
    compare: equal strings mean two runs agree on everything the
    determinism contract covers. [profile] is the key session outcome
    distributions are counted over ([Engine.run ~profile]). *)

val outcome_repr : show:('a -> string) -> 'a Sim.Types.outcome -> string
(** Canonical one-line rendering of the deterministic content of an
    outcome: termination, moves, sent/delivered/steps, halted flags,
    [Obs.Metrics.det_repr], and an MD5 digest of the full trace. Two
    runs with equal [outcome_repr] agree on everything the determinism
    contract covers.
    @raise Invalid_argument on a run whose config did not record
    ([Sim.Runner.recorded_trace]): its digest would cover nothing. *)

val profile : show:('a -> string) -> 'a Sim.Types.outcome -> string
(** The run's point in outcome space — termination + moves — the key
    the outcome distributions are counted over. *)
