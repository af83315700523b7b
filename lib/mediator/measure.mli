(** Measuring outcome distributions of mediator-game runs.

    The implementation relation of Section 2 compares, per type profile,
    the distributions over action profiles that each game induces together
    with its environment strategies. These helpers produce those
    distributions — exactly (enumerating the mediator's randomness) when
    every randomness slot has a finite modulus, and empirically (seeded
    Monte Carlo over simulator runs) otherwise. *)

val exact_action_dist : Spec.t -> types:int array -> Games.Dist.t option
(** Exact distribution over action profiles of the mediated equilibrium at
    a fixed type profile, by enumerating the mediator's randomness.
    [None] when some slot is a full field element (not enumerable). *)

val run_once :
  spec:Spec.t ->
  types:int array ->
  rounds:int ->
  wait_for:int ->
  scheduler:Sim.Scheduler.t ->
  seed:int ->
  int Sim.Types.outcome
(** One complete mediator-game history. The outcome's moves array has n+1
    entries (the mediator at index n never moves). *)

val empirical_action_dist :
  spec:Spec.t ->
  types:int array ->
  rounds:int ->
  wait_for:int ->
  samples:int ->
  scheduler_of:(int -> Sim.Scheduler.t) ->
  seed:int ->
  Games.Dist.t
(** Empirical distribution of action profiles over [samples] runs, filling
    non-movers with the spec's default move (or, failing that, action 0 —
    which never triggers for honest runs under fair schedulers). *)

val expected_utilities :
  spec:Spec.t ->
  rounds:int ->
  wait_for:int ->
  samples:int ->
  scheduler_of:(int -> Sim.Scheduler.t) ->
  seed:int ->
  float array
(** Monte-Carlo ex-ante expected utility of the mediated play: types drawn
    from the game's distribution, one run per sample. *)
