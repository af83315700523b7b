(** Empirical t-bisimulation and t-emulation (Definitions 5.1 and 5.2).

    The paper's Section 5 security notions compare adversarial executions
    across the two games: a cheap-talk protocol t-bisimulates the mediator
    game when for every adversary (coalition strategy + scheduler) in one
    game there is an adversary in the other inducing the {e same}
    distribution over outputs, and t-emulates it when the cheap-talk
    direction holds with an adversary-independent strategy mapping.

    Exact quantification over all adversaries is not computable; this
    module measures the relation over structured adversary families — the
    deviation shapes the paper's own lower-bound arguments use. For every
    adversary on one side we search the other side's family for the
    best-matching outcome distribution; the maximum over these minima is
    the {e empirical (bi)simulation radius}: 0 up to Monte-Carlo noise
    when the theorem's relation holds, bounded away from 0 when it fails.

    The mediator-game adversary family includes {e relaxed} schedulers
    (Section 5), whose deadlocks must be matched by stalling coalitions in
    cheap talk and vice versa — the correspondence Theorem 4.4's proof
    routes through Lemma 6.10 and Proposition 6.9. *)

type ct_adversary = {
  ct_name : string;
  ct_replace : seed:int -> int -> (Mpc.Engine.msg, int) Sim.Types.process option;
      (** per-run substitution of coalition players *)
  ct_scheduler : int -> Sim.Scheduler.t;
}

(** A mediator-game adversary: structured deviations of coalition players
    plus the environment strategy. *)
type med_adversary = {
  med_name : string;
  misreport : (int * int) list;  (** player i sends the mediator type x' *)
  override : (int * int) list;  (** player i ignores the STOP and plays a *)
  mute : int list;  (** player i never talks to the mediator *)
  relaxed_stop : int option;
      (** run under a relaxed scheduler that stops delivery after this
          many deliveries (Lemma 6.10 deadlocks) *)
}

val honest_ct : (int -> Sim.Scheduler.t) -> ct_adversary
val honest_med : med_adversary

val standard_med_adversaries : n:int -> coalition:int list -> med_adversary list
(** Misreports, action overrides, muting and relaxed stops for the given
    coalition — the family quantified over in the experiments. *)

(** The samplers and radii below accept the same [?check_runs] /
    [?pool] / [?metrics] triple as {!Verify}'s measurements: trials are
    sharded over the pool's domains and folded in seed order, so the
    distributions (and hence the radii) are identical at every domain
    count, and each trial's metrics land in the [?metrics] aggregate in
    seed order on the submitting domain. [bisimulation_radius] samples
    some adversaries on both sides twice; the aggregate counts every
    run that actually happened. *)

val med_outcome_dist :
  ?pool:Parallel.Pool.t ->
  ?metrics:Obs.Agg.t ->
  Compile.plan ->
  types:int array ->
  rounds:int ->
  med_adversary ->
  samples:int ->
  seed:int ->
  Games.Dist.t
(** Runs the canonical mediator game of the plan's spec with the given
    deviations. [wait_for] is n - k - t as in the construction of
    Lemma 6.8. Non-movers follow the plan's infinite-play semantics
    (wills under AH, defaults otherwise). *)

type match_result = {
  adversary : string;
  best_match : string;
  distance : float;  (** L1 between the two outcome distributions *)
}

val emulation_radius :
  ?check_runs:bool ->
  ?pool:Parallel.Pool.t ->
  ?metrics:Obs.Agg.t ->
  Compile.plan ->
  types:int array ->
  rounds:int ->
  ct_family:ct_adversary list ->
  med_family:med_adversary list ->
  samples:int ->
  seed:int ->
  match_result list
(** Definition 5.2 direction: for each cheap-talk adversary, the closest
    mediator-game adversary. *)

val bisimulation_radius :
  ?check_runs:bool ->
  ?pool:Parallel.Pool.t ->
  ?metrics:Obs.Agg.t ->
  Compile.plan ->
  types:int array ->
  rounds:int ->
  ct_family:ct_adversary list ->
  med_family:med_adversary list ->
  samples:int ->
  seed:int ->
  match_result list * match_result list
(** Definition 5.1: both directions — (cheap-talk matched in mediator
    game, mediator game matched in cheap talk). *)
