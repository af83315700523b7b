(** Happens-before schedule-race detector.

    The paper's guarantees quantify over {e all} schedulers, so the
    deadliest bug class in this reproduction is silent schedule
    sensitivity: a protocol whose outcome depends on delivery order where
    the theorems say it must not. This analyzer looks for such dependence
    along a handful of observed schedules instead of enumerating them
    all; `ctmed lint` runs it on its small fixtures and the mediator
    game:

    + run the protocol under a family of schedulers, recording the full
      delivery schedule (start signals normalised first — the runner
      activates start before the first receive regardless of schedule, so
      this is behaviour-preserving);
    + take the run's {e candidate races} from {!Mc.races_of_outcome}, the
      happens-before relation DPOR uses: two deliveries to the same
      process whose later message's send does not causally depend on the
      earlier delivery — their order was the scheduler's free choice.
      That relation keeps two E²-bit relations over a run's E
      deliveries, which bounds the runs this detector is meant for;
    + for every candidate, {e replay} the run with the pair swapped (the
      held delivery waits until the promoted one lands; everything else
      keeps its causal order) and compare: different final moves is an
      {!Outcome_race}; same moves but different effects emitted by the
      receiving process in the two activations is an {!Effect_race}.

    Soundness/completeness caveats: every reported race is real (the two
    runs are both legal executions and they differ), but the detector
    only examines single swaps along observed schedules — races reachable
    only through multi-pair reorderings can be missed, so a clean report
    is evidence, not proof. [Effect_race]s are common and usually benign
    (any threshold-waiting protocol emits its batch from whichever
    activation crosses the threshold); [Outcome_race]s are what the
    theorems forbid. Verdicts are checked against {!Sim.Explore} ground
    truth in the test suite. *)

val analyzer : string

type verdict =
  | Outcome_race  (** swapping the pair changes some player's final move *)
  | Effect_race
      (** moves agree, but the receiver's emitted effects differ — benign
          for the theorems, still schedule-dependent behaviour *)

type race = {
  dst : int;  (** the process receiving both messages *)
  first : Mc.entry;  (** delivered earlier in the observed schedule *)
  second : Mc.entry;
  verdict : verdict;
  scheduler : string;  (** observed schedule that exposed the pair *)
  detail : string;
}

type report = {
  races : race list;
  runs : int;
  candidates : int;
  candidates_skipped : int;  (** dropped by [max_candidates]; never silent *)
  replays : int;
  diverged_replays : int;  (** swaps whose tail left the observed schedule *)
}

val analyze :
  ?schedulers:Sim.Scheduler.t list ->
  ?max_steps:int ->
  ?max_candidates:int ->
  make:(unit -> ('m, 'a) Sim.Types.process array) ->
  unit ->
  report
(** [make] must return freshly-initialised processes on every call (state
    is mutable and every replay restarts from scratch), exactly like
    {!Sim.Explore.explore}. Defaults: a fixed six-scheduler family,
    [max_steps] 20000, [max_candidates] 400 replays. Deterministic. *)

val has_outcome_race : report -> bool

val findings : report -> Finding.t list
(** Outcome races as errors, effect races and coverage caps as warnings. *)
