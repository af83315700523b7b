(** Stateful model checker over the simulator semantics.

    Replaces {!Sim.Explore}'s blind depth-first enumeration with dynamic
    partial-order reduction (DPOR): two deliveries commute whenever they
    target different destination processes — a process is a deterministic
    function of its local delivery sequence, so swapping deliveries to
    different processes yields the same behaviour (the reason
    [Faults.Plan] may treat deliveries as order-independent). The
    checker explores one canonical interleaving per Mazurkiewicz class,
    computes the happens-before relation of each executed trace
    (send-ancestry + per-destination program order), and for every
    {e race} — an adjacent-swappable dependent pair — schedules a
    backtrack branch; sleep sets prevent re-exploring classes already
    covered. Start signals are delivered
    eagerly (the runner activates start before the first receive
    regardless of schedule, so this is behaviour-preserving).

    Exploration runs as parallel frontier rounds over [Parallel.Pool]:
    each round replays the queued branch points concurrently, and the
    results are folded sequentially in queue order, so every verdict —
    classes, counterexamples, statistics — is byte-identical at any
    [-j] ({!repr} is the canonical serialisation the tests diff).

    Verdicts go beyond safety: outcome-confluence, per-outcome property
    violations with {e minimized} counterexample traces (greedy
    delivery-elision replay, pretty-printed through {!Sim.Trace_pp}),
    deadlock detection (pending messages whose destinations have all
    halted), starvation bounds (the worst steps-in-flight any delivered
    message waited — the bound {!Sim.Runner}'s fairness override needs),
    and — for relaxed systems — stopped-state coverage: every reachable
    [Stop_delivery] configuration is a happens-before downward-closed cut
    of some explored maximal trace, so enumerating cuts of the canonical
    representatives (deduplicated by per-destination delivery sequences)
    covers them all, mediator-batch atomicity included.

    State fingerprints ({!Sim.Runner.Step.state_hash}, the driver-visible
    state) count distinct states, converging branches and stuck states;
    they never prune the search — see DESIGN.md section 13 for why. *)

type entry = { src : int; dst : int; seq : int }
(** A delivery, identified schedule-independently by its channel
    coordinates: the seq-th message from src to dst (the paper's
    (i,j,k)). *)

val pp_entry : Format.formatter -> entry -> unit

type ('m, 'a) system = {
  sys_make : unit -> ('m, 'a) Sim.Types.process array;
  sys_mediator : int option;
  sys_relaxed : bool;
      (** when true the environment may stop delivery: stopped cuts are
          enumerated and verdicts cover them *)
}

val system :
  ?mediator:int ->
  ?relaxed:bool ->
  (unit -> ('m, 'a) Sim.Types.process array) ->
  ('m, 'a) system
(** [relaxed] defaults to false. [make] must return freshly-initialised
    processes on every call, as in {!Sim.Explore.explore}. *)

type 'a property = {
  p_name : string;
  p_check :
    stopped:bool -> willed:'a option array -> 'a Sim.Types.outcome -> string option;
      (** [None] = holds; [Some reason] = violated. [willed] is
          [Runner.moves_with_wills] of the run's own processes;
          [stopped] marks a relaxed-environment stopped configuration
          (deadlock semantics: wills are in force). *)
}

val property :
  string ->
  (stopped:bool -> willed:'a option array -> 'a Sim.Types.outcome -> string option) ->
  'a property

type backend =
  | Dpor  (** persistent/sleep-set partial-order reduction (default) *)
  | Naive  (** {!Sim.Explore} reference enumeration, adapted *)

(** One behaviourally distinct end state. *)
type 'a outcome_class = {
  cls_moves : 'a option array;
  cls_willed : 'a option array;
  cls_termination : Sim.Types.termination;
  cls_stopped : bool;  (** a relaxed stopped cut, not a maximal history *)
  cls_count : int;  (** explored traces/cuts landing in this class *)
  cls_witness : entry list;  (** delivery script of the first one *)
}

type 'a counterexample = {
  ce_property : string;
  ce_reason : string;
  ce_script : entry list;  (** minimized delivery script *)
  ce_starts : int list option;
      (** started processes, when restricted (stopped cuts); [None] =
          all *)
  ce_stopped : bool;
  ce_outcome : 'a Sim.Types.outcome;  (** replay of the minimized script *)
  ce_original : int;  (** deliveries in the un-minimized witness *)
}

type stats = {
  backend_name : string;
  runs : int;  (** complete replays performed *)
  traces : int;  (** maximal (complete) histories explored *)
  truncated : int;  (** histories cut by [max_steps] *)
  sleep_blocked : int;  (** branches pruned by sleep sets *)
  states : int;  (** distinct state fingerprints seen *)
  revisits : int;  (** fingerprint hits on already-seen states *)
  stop_cuts : int;  (** distinct stopped configurations replayed *)
  minimize_replays : int;
  max_frontier : int;
  capped : bool;  (** [max_states] stopped the search *)
}

type 'a verdict = {
  pass : bool;  (** no property violation found *)
  confluence : Sim.Explore.agreement;
      (** do all maximal histories agree on willed moves? *)
  classes : 'a outcome_class list;  (** canonically sorted *)
  violation : 'a counterexample option;
  deadlocks : int;
      (** distinct stuck states: messages pending, every destination
          halted *)
  worst_wait : int;
      (** max steps any delivered message spent pending — a sufficient
          starvation bound for these histories *)
  exhaustive : bool;
  stats : stats;
}

exception Replay_diverged of string
(** A strict replay did not find a scripted message pending — an
    internal-invariant failure, never expected on checker-produced
    scripts. *)

val check :
  ?backend:backend ->
  ?pool:Parallel.Pool.t ->
  ?max_states:int ->
  ?max_steps:int ->
  ?max_cuts:int ->
  ?max_minimize:int ->
  ?properties:'a property list ->
  ?require_confluence:bool ->
  ?fingerprints:bool ->
  ('m, 'a) system ->
  'a verdict
(** Explore the system and fold a verdict. Defaults: [Dpor] backend,
    [Parallel.Pool.sequential], [max_states] 100_000 (caps replays and
    queued branch points; exceeding it sets [stats.capped] and clears
    [exhaustive]), [max_steps] 10_000 deliveries per history, [max_cuts]
    4096 stopped cuts, [max_minimize] 1000 elision replays, no
    properties, [require_confluence] false (when true, non-confluence
    itself produces a minimized divergence counterexample), and
    [fingerprints] true (disable to skip per-state hashing on very long
    histories; [states]/[revisits]/[deadlocks] then read 0). *)

val replay :
  ('m, 'a) system ->
  script:entry list ->
  ?starts:int list ->
  stopped:bool ->
  max_steps:int ->
  unit ->
  'a Sim.Types.outcome * 'a option array
(** Re-execute a counterexample script (guided: entries are delivered as
    they become pendable; with [stopped] the environment stops once the
    script is exhausted, otherwise oldest-first delivery completes the
    history). Returns the outcome and its willed moves — used to confirm
    counterexamples independently of the search. *)

val races_of_outcome : 'a Sim.Types.outcome -> (int * entry * entry) list
(** The dependent-but-reorderable delivery pairs of one run, [(dst,
    first, second)], computed from the checker's happens-before relation
    (send-ancestry closure, two E²-bit relations over E deliveries): the
    later message's send does not causally depend on the earlier
    delivery, so their order was the scheduler's free choice: the races
    DPOR backtracks on.
    @raise Invalid_argument on a run whose config did not record
    ([Sim.Runner.recorded_trace]). *)

val repr : ('a -> string) -> 'a verdict -> string
(** Canonical multi-line serialisation of a verdict — byte-identical at
    any [-j]; what the determinism tests diff and `ctmed check` prints
    under [--verbose]. *)

val pp_counterexample :
  mv:('a -> string) -> Format.formatter -> 'a counterexample -> unit
(** Human-readable counterexample: the minimized script, then the replay
    trace through {!Sim.Trace_pp.chart}. *)

val findings : subject:string -> 'a verdict -> Finding.t list
(** Violations as errors; capped/truncated/vacuous coverage as warnings
    — the `ctmed lint` / `make check` producer. *)
