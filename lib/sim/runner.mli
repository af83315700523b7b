(** The asynchronous game driver.

    Runs an array of processes (players 0..n-1, plus optionally a mediator
    as the last process) against a scheduler, producing an {!Types.outcome}
    that records moves, termination class, message counts, the run's
    metrics and, when its config asks for it ([~record:true]), the full
    pattern trace.

    The driver enforces the paper's two environment constraints for
    non-relaxed schedulers: every message is eventually delivered and every
    live process is eventually activated — via the starvation bound: any
    message pending for more than [starvation_bound] scheduling decisions
    is force-delivered (oldest first), overriding the scheduler. Relaxed
    schedulers may issue [Stop_delivery]; the driver then completes any
    partially delivered same-batch group of mediator messages (the
    atomicity rule of Section 5) before dropping the rest.

    A [Faults.Plan] adds channel-level faults on top (DESIGN.md §11):
    duplicated patterns, in-transit corruption via the [fuzz] hook,
    Delay pins the fairness override must break, and crash-restart
    windows during which deliveries to a process are deferred (never
    dropped). Every injected fault is counted in the run's metrics and
    emitted as a [Fault] trace/pattern event; injection is a pure
    function of the plan's seed and the message's (src, dst, seq), so
    faulted runs keep the byte-identity-at-any-[-j] contract. *)

val now : unit -> float
(** Monotonic clock ([CLOCK_MONOTONIC]), in seconds from an arbitrary
    origin: {!Obs.Metrics.now}. All wall-limit watchdogs, throughput
    timing and each run's [metrics.wall_clock] use it, never
    [gettimeofday]: a system clock step must not spuriously fire a
    watchdog, starve it forever or corrupt a latency. *)

type ('m, 'a) config = {
  processes : ('m, 'a) Types.process array;
  scheduler : Scheduler.t;
  mediator : int option;  (** pid of the mediator process, if any *)
  max_steps : int;  (** cutoff guarding against livelock; default 200_000 *)
  starvation_bound : int;  (** fairness bound; default 64 + 4*(n^2) *)
  faults : Faults.Plan.t option;
      (** channel-fault plan consulted at every enqueue/delivery; [None]
          (the default) injects nothing and costs nothing *)
  fuzz : (src:Types.pid -> dst:Types.pid -> seq:int -> 'm -> 'm) option;
      (** payload mangler applied when the plan marks a message
          [Corrupt]; without it Corrupt verdicts are inert (a fault the
          message type cannot express is not counted) *)
  fuel : int option;
      (** watchdog: end the run as [Timed_out] after this many scheduler
          decisions (deterministic — decisions, unlike steps, also tick
          on burnt/vetoed choices, so a wedged run cannot spin) *)
  wall_limit : float option;
      (** watchdog: end the run as [Timed_out] after this many seconds.
          Environmental by nature — never enable it in a run whose trace
          participates in a byte-identity diff *)
  record : bool;
      (** keep the trace (default [false]). Unrecorded, the outcome's
          [trace] is [[]] and no event is built. Sessions that nothing
          reads the trace of run so: [ctmed serve], [Engine.Toy],
          Verify's trials (unless linted) and the experiments. Each
          reader opts in with [~record:true]: [Explore]'s runs, Verify
          under [check_runs], [ctmed run --journal] and [ctmed replay],
          [ctmed trace] and [ctmed lint].
          [Step] always records. The readers — {!message_pattern},
          [Trace_pp.chart]/[stats], [Analysis.check_run],
          [Analysis.Mc.races_of_outcome] and
          [Differential.outcome_repr] — raise [Invalid_argument] on an
          unrecorded run rather than report on nothing
          ({!recorded_trace}). [record] governs only the trace: the
          pattern history passed to the scheduler's [choose] is built
          exactly when the scheduler declares [Scheduler.t.history],
          whatever [record] says. With [record:false] and a scheduler
          that reads no history, a run builds nothing per message. *)
}

val config :
  ?mediator:int ->
  ?max_steps:int ->
  ?starvation_bound:int ->
  ?faults:Faults.Plan.t ->
  ?fuzz:(src:Types.pid -> dst:Types.pid -> seq:int -> 'm -> 'm) ->
  ?fuel:int ->
  ?wall_limit:float ->
  ?record:bool ->
  scheduler:Scheduler.t ->
  ('m, 'a) Types.process array ->
  ('m, 'a) config
(** @raise Invalid_argument when [max_steps], [starvation_bound] or
    [fuel] is not positive, or [wall_limit] is not > 0. *)

(** Session recycling. A slot carries the driver's grown storage (the
    items option array, seq counters, batch bitset, flag arrays, metrics
    builder) from one finished run to the next: [run ~slot] scrubs that
    state back to post-create freshness in place instead of
    reallocating it, which removes essentially all per-session setup
    allocation for a standing service replaying one config shape across
    millions of seeds (DESIGN.md §17). Recycling is {e observationally
    invisible}: a [run ~slot] outcome — [det_repr], trace, every
    deterministic metric — is byte-identical to the same config run
    fresh. A slot is single-threaded state carried by one run at a time:
    one slot per domain, never shared. When the process count changes
    the slot falls back to a fresh core automatically. *)
module Slot : sig
  type ('m, 'a) t

  val create : unit -> ('m, 'a) t
  (** An empty (cold) slot; the first run through it allocates normally
      and parks its state in the slot. *)

  val clear : ('m, 'a) t -> unit
  (** Drop the parked state (the next run allocates fresh). *)

  val is_warm : ('m, 'a) t -> bool
  (** Whether the slot holds recyclable state. *)
end

val run : ?slot:('m, 'a) Slot.t -> ('m, 'a) config -> 'a Types.outcome
(** Execute one complete history. Calls [scheduler.reset] first (per-run
    freshness for stateful schedulers) and fills the outcome's
    [metrics] record. Scheduler exceptions: [Stack_overflow],
    [Out_of_memory] and [Assert_failure] propagate (with backtrace);
    any other exception from [scheduler.choose] falls back to
    oldest-first delivery and increments [metrics.scheduler_exns] —
    never a silent FIFO degradation. With [?slot] the run recycles the
    slot's parked driver state (see {!Slot}); the outcome is
    byte-identical either way. *)

(** {1 Decision journal: durable runs}

    One journal entry per decision. A run is a pure function of its
    config — the scheduler is a seeded object in it — so a journal is a
    witness of the run rather than a script: replay and resume rebuild
    the config from its seed parameters, re-run it through the same
    decision loop as {!run} and check every decision against the stored
    entry at the same index. Process closures cannot be serialized, so a
    checkpoint IS the journal prefix. Entries carry channel coordinates
    (src, dst, seq), which are stable across re-execution, rather than
    pending-set item ids, which are not meaningful outside one process.
    See DESIGN.md section 16. *)

module Journal : sig
  type coords = { src : Types.pid; dst : Types.pid; seq : int }
  (** A message's identity on its channel; start signals use
      [src = Types.env_pid]. *)

  (** Why the run fell back to oldest-deliverable-first delivery:
      the scheduler's choice was withheld by the fault plane
      ([Blocked], not a metric event), named a non-pending id
      ([Invalid]), or raised ([Sched_exn]). *)
  type reason = Blocked | Invalid | Sched_exn

  type entry =
    | Forced of coords  (** starvation-bound fairness override fired *)
    | Chose of coords  (** the scheduler's choice, delivered as-is *)
    | Fallback of reason * coords option
        (** redirected to oldest deliverable; [None] = burnt decision *)
    | Stopped  (** a relaxed scheduler chose [Stop_delivery] *)
    | Watchdog  (** fuel or wall limit fired (before any tick) *)

  val equal : entry -> entry -> bool
  (** Structural equality, without polymorphic compare. *)

  val entry_repr : entry -> string
  (** Stable one-line rendering, e.g. ["chose 0->2#3"]. *)
end

exception Replay_mismatch of string
(** A re-run decided differently from its journal: the config it was
    rebuilt from is not the one the journal came from (wrong seed, spec,
    fault plan, scheduler...), the run ended while stored entries
    remained, or the journal was damaged. The message names the first
    differing entry index and both entries. *)

val run_journaled :
  emit:(Journal.entry -> unit) -> ('m, 'a) config -> 'a Types.outcome
(** Exactly {!run} — byte-identical outcome — additionally calling
    [emit] with each decision's journal entry as it is made. *)

val resume :
  entries:Journal.entry array ->
  ?emit:(Journal.entry -> unit) ->
  ('m, 'a) config ->
  'a Types.outcome
(** Crash-restart: re-run a freshly built config (same seed parameters
    as the original run) through {!run}'s decision loop, checking its
    first decisions against the journaled prefix [entries], then continue
    to completion. Since the re-run is the original run, the outcome is
    byte-identical to the uninterrupted one. [emit] receives only the
    entries past the prefix, so appending them to the stored journal
    keeps it a valid whole-run journal. While stored entries remain the
    wall clock is not read and a stored [Watchdog] ends the run as
    [Timed_out] there; past them the config's watchdogs apply.
    @raise Replay_mismatch when a decision differs from its stored entry
    or the run ends before the entries do. *)

val replay :
  ?upto:int -> entries:Journal.entry array -> ('m, 'a) config -> 'a Types.outcome
(** Time travel: re-run the journal's own config — its scheduler
    included — through {!run}'s decision loop for the first [upto]
    journal entries (default: all), checking each decision against its
    stored entry, and freeze. A complete journal replays to the original
    termination; a truncated prefix returns a [Cutoff] outcome whose
    trace/metrics are the run's state at that decision. The wall clock
    is not read and a stored [Watchdog] ends the run as [Timed_out].
    @raise Replay_mismatch when a decision differs from its stored entry
    (a journal replayed under the wrong scheduler included) or the run
    ends before the entries do.
    @raise Invalid_argument when [upto] is negative. *)

val moves_with_wills :
  ('m, 'a) Types.process array -> 'a Types.outcome -> 'a option array
(** The Aumann-Hart reading of an unfinished history: players that never
    moved get the action named by their [will] (if any). *)

val moves_with_defaults : default:(int -> 'a) -> 'a Types.outcome -> 'a array
(** The default-move reading: players that never moved get
    [default pid], which is part of the game description. *)

val recorded_trace : who:string -> 'a Types.outcome -> 'a Types.trace_event list
(** The outcome's trace, for a reader that needs one.
    @raise Invalid_argument naming [who] and [~record:true] when the run
    took a step but kept no event: its config did not record. *)

val message_pattern : 'a Types.outcome -> Scheduler.pattern_event list
(** Chronological (s/d,i,j,k) pattern of the run, as in Lemma 6.8.
    @raise Invalid_argument on an unrecorded run ({!recorded_trace}). *)

(** The model checker's step-at-a-time hook: the same driver state
    machine as {!run}, but the caller is the environment — it picks every
    delivery itself, one step at a time. No scheduler, no fault plan, no
    watchdogs; the delivery semantics (implicit start activation,
    mediator-batch tracking, move/halt bookkeeping, trace/metrics
    emission) are shared code with {!run}, so a Step-driven history is
    bit-for-bit a legal {!run} history. *)
module Step : sig
  type ('m, 'a) t

  val create : ?mediator:int -> ('m, 'a) Types.process array -> ('m, 'a) t
  (** Fresh state with every process's start signal pending, exactly as
      {!run} begins. *)

  val deliver_starts : ('m, 'a) t -> unit
  (** Deliver all pending environment start signals, in pid order —
      behaviour-preserving normalisation (the runner activates start
      before the first receive regardless of schedule), after which every
      pending item is a real message. *)

  val pending : ('m, 'a) t -> Pending_set.t
  (** The live pending set (read-only view; delivery order is the
      caller's choice). *)

  val find :
    ('m, 'a) t -> src:Types.pid -> dst:Types.pid -> seq:int ->
    Types.pending_view option
  (** Look a pending message up by its schedule-independent channel
      coordinates (the paper's (i,j,k)). *)

  val deliver : ('m, 'a) t -> id:int -> unit
  (** Deliver one pending message (counts as one step).
      @raise Invalid_argument if [id] is not pending. *)

  val steps : ('m, 'a) t -> int

  val pending_all_halted : ('m, 'a) t -> bool
  (** True when messages are pending but every destination has halted —
      the checker's stuck-state (deadlock-in-spirit) predicate: the
      remaining deliveries are inert. *)

  val state_hash : ('m, 'a) t -> int
  (** Canonical fingerprint of the driver-visible state: pending
      multiset keyed by channel coordinates + payload hashes, moves,
      halted/started flags, channel seq counters, and each pending
      batch's partially-delivered bit. Process-internal closure state is
      not covered, which is why [Analysis.Mc] counts states with it but
      never prunes on it (DESIGN.md section 13). *)

  val finish : ('m, 'a) t -> 'a Types.outcome
  (** Outcome of a maximal history ([All_halted]/[Quiescent]).
      @raise Invalid_argument when messages are still pending. *)

  val stop : ('m, 'a) t -> 'a Types.outcome
  (** The relaxed environment's [Stop_delivery]: complete any partially
      delivered mediator batch (the Section 5 atomicity rule), drop the
      rest, terminate [Deadlocked] — exactly {!run}'s path. *)

  val cutoff : ('m, 'a) t -> 'a Types.outcome
  (** End a truncated history as [Cutoff] (messages stay pending in the
      trace sense; no drops), mirroring {!run}'s max_steps exit. *)
end
