(** Empirical verification of the compiled cheap-talk protocols: the
    measurable faces of implementation (Section 2), t-cotermination
    (Definition 5.3) and (k,t)-robustness.

    Implementation is checked as distribution distance: for a fixed type
    profile, the exact outcome distribution of the mediated play (the
    mediator's randomness enumerated) is compared with the empirical
    distribution over simulator runs of the cheap-talk protocol under a
    scheduler family — the paper's dist(π, π′) with Monte-Carlo error. *)

val default_check_runs : bool
(** The default for every [?check_runs] parameter below: true when the
    CTMED_LINT_RUNS environment variable is set (to 1/true/yes) at
    startup. A checked run records its trace ([~record:check_runs];
    unchecked runs keep none), is passed through
    {!Analysis.check_run} (the effect-discipline trace linter) and the
    first [Error]-severity finding raises [Failure] — the hook the
    experiment harness enables via `ctmed experiment --lint-runs` or
    `bench/main.exe -- lint ...`. Unlike the global flag it replaces,
    the setting is threaded explicitly so worker domains lint exactly
    the runs their submitter asked for. *)

type run = {
  outcome : int Sim.Types.outcome;
  actions : int array;
      (** the induced action profile, after wills / default moves *)
  deadlocked : bool;
}

val run_once :
  ?check_runs:bool ->
  ?faults:Faults.config ->
  ?fuel:int ->
  ?wall_limit:float ->
  Compile.plan ->
  types:int array ->
  scheduler:Sim.Scheduler.t ->
  seed:int ->
  run
(** One cheap-talk history with all players honest. [seed] derives both
    the players' secret randomness and the shared coin. The history
    runs on the simulator ({!Sim.Runner.run}).

    [?faults] injects channel-level faults: a {!Faults.Plan} is derived
    from the trial seed, so a faulted trial is still a pure function of
    its seed and the fault schedule is identical at every [-j]. Corrupt
    faults mangle the protocol payloads through a per-message-type fuzz
    hook (output shares and AVSS cross points get [+1] in GF(2^8);
    votes and dealer rows are left intact), exercising the
    Berlekamp–Welch and echo-validation paths. [?fuel] and
    [?wall_limit] bound the run (decisions / seconds); an exhausted run
    terminates [Timed_out] and counts as deadlocked. *)

val run_with :
  ?check_runs:bool ->
  ?faults:Faults.config ->
  ?fuel:int ->
  ?wall_limit:float ->
  Compile.plan ->
  types:int array ->
  scheduler:Sim.Scheduler.t ->
  seed:int ->
  replace:(int -> (Mpc.Engine.msg, int) Sim.Types.process option) ->
  run
(** Like {!run_once} but [replace pid] may substitute an adversarial
    process for player [pid] (honest when it returns [None]). *)

val fuzz_msg : src:int -> dst:int -> seq:int -> Mpc.Engine.msg -> Mpc.Engine.msg
(** The payload-mangling hook Corrupt faults are applied through (also
    usable with [Sim.Runner.config ~fuzz] directly): output shares and
    AVSS cross points are offset by one field element; agreement votes
    and dealer rows pass through unchanged. *)

val metrics : run -> Obs.Metrics.t
(** The run's observability record (see [Obs.Metrics]). *)

(** The Monte-Carlo measurements below accept an optional [?pool]: when
    given, trial seeds are sharded over its domains. Every trial is a
    pure function of its seed (its own scheduler from [scheduler_of],
    its own [Random.State], its own processes), and the per-trial
    results are folded in seed order, so the returned numbers are
    byte-identical at every domain count and chunk size. [scheduler_of]
    must return a fresh scheduler per seed when a pool is used — a
    shared stateful scheduler would race across domains (and already
    breaks seed-determinism sequentially).

    They also accept an optional [?metrics] aggregate: each trial's
    per-run metrics travel back with its result and the submitting
    domain folds them into the aggregate in seed order — worker domains
    never touch it, so the deterministic counters obey the same
    any-[-j] byte-identity as the measurements themselves. *)

type trial_error_policy =
  | Fail  (** raise [Parallel.Pool.Trial_failed] for the lowest failing seed *)
  | Skip  (** drop the failed trial silently (still counted in [?stats]) *)
  | Degrade
      (** drop the failed trial and record it in [?stats] so the caller
          can render a degraded result instead of aborting the sweep *)

type trial_failure = {
  seed : int;  (** the original trial seed (not the derived retry seed) *)
  attempts : int;  (** total evaluations, including the first *)
  error : string;  (** printed form of the last exception *)
}

type trial_stats = {
  mutable retried : int;  (** total re-runs across all trials *)
  mutable failures : trial_failure list;  (** seed order; empty unless [Degrade] *)
}

val trial_stats : unit -> trial_stats
(** A fresh all-zero record to pass as [?stats]. *)

val degraded : trial_stats -> int
(** Number of trials that exhausted their retries and were dropped. *)

val retry_seed : seed:int -> attempt:int -> int
(** The derived seed attempt [attempt >= 1] of trial [seed] runs under —
    exposed so a logged retry can be replayed by hand. Deterministic,
    and disjoint from every first-attempt seed range in practice. *)

val map_trials :
  ?pool:Parallel.Pool.t ->
  ?retries:int ->
  ?on_trial_error:trial_error_policy ->
  ?stats:trial_stats ->
  samples:int ->
  seed:int ->
  (int -> 'a) ->
  'a array
(** [map_trials ?pool ~samples ~seed f] is [f] applied to every trial
    seed in [[seed, seed + samples)], results in seed order — sharded
    over the pool's domains when [pool] is given, a plain loop
    otherwise. The building block for every measurement below and for
    the experiments' hand-rolled sweeps.

    With the defaults ([retries = 0], [on_trial_error = Fail], no
    [stats]) a raising trial fails fast exactly as before. Otherwise
    each trial is guarded: a non-fatal exception re-runs the trial with
    a seed derived from [[0xFEED; seed; attempt]] up to [retries]
    times; a trial still failing after that is handled per
    [on_trial_error]. Retry counts and the failure list are folded by
    the submitting domain in seed order, so the hardened path keeps the
    any-[-j] byte-identity ([Fail] names the {e lowest} failing seed,
    not whichever domain lost the race). [Stack_overflow],
    [Out_of_memory] and [Assert_failure] are never retried. Under
    [Skip]/[Degrade] the result array only holds the successful trials,
    so its length may be < [samples]. *)

val fold_metrics : Obs.Agg.t option -> ('a * Obs.Metrics.t) array -> unit
(** [fold_metrics agg trials] adds each trial's metrics into [agg] (a
    no-op when [None]), walking the array left to right. Because
    {!map_trials} returns results in seed order, calling this on its
    result from the submitting domain preserves the determinism
    contract — the pattern every [?metrics]-taking measurement uses. *)

val empirical_action_dist :
  ?check_runs:bool ->
  ?pool:Parallel.Pool.t ->
  ?metrics:Obs.Agg.t ->
  ?faults:Faults.config ->
  Compile.plan ->
  types:int array ->
  samples:int ->
  scheduler_of:(int -> Sim.Scheduler.t) ->
  seed:int ->
  Games.Dist.t

val implementation_distance :
  ?check_runs:bool ->
  ?pool:Parallel.Pool.t ->
  ?metrics:Obs.Agg.t ->
  ?faults:Faults.config ->
  Compile.plan ->
  types:int array ->
  samples:int ->
  scheduler_of:(int -> Sim.Scheduler.t) ->
  seed:int ->
  float
(** dist(mediated, cheap-talk) at this type profile: L1 between the exact
    mediated distribution and the empirical cheap-talk distribution.
    [?faults] (threaded to {!run_once}) measures the same distance with
    channel faults injected — the chaos suite's within-threshold check.
    @raise Invalid_argument if the spec's randomness is not enumerable. *)

val expected_utilities :
  ?check_runs:bool ->
  ?pool:Parallel.Pool.t ->
  ?metrics:Obs.Agg.t ->
  ?faults:Faults.config ->
  Compile.plan ->
  samples:int ->
  scheduler_of:(int -> Sim.Scheduler.t) ->
  seed:int ->
  ?replace:(int -> (Mpc.Engine.msg, int) Sim.Types.process option) ->
  unit ->
  float array
(** Monte-Carlo ex-ante utilities of the cheap-talk play (types drawn from
    the game's prior — each trial from its own (seed, trial)-derived
    stream), optionally with adversarial substitutions. *)

val coterminated : int Sim.Types.outcome -> honest:int list -> bool
(** Definition 5.3 for one history: either every honest player moved or
    none did. *)

val messages_used : run -> int
