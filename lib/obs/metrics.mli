(** Per-run simulator metrics.

    A {!t} is collected by every [Sim.Runner.run] (one record per run,
    [runs = 1]) and summed with {!merge}. The record splits into two
    groups:

    - {e deterministic} counters — message counts per (src, dst) class,
      batches, steps, starvation force-delivers, invalid-scheduler-
      decision fallbacks, non-fatal scheduler-exception fallbacks. These
      are pure functions of the run's seed and participate in the
      determinism contract (DESIGN.md section 9): any fold of them in
      seed order is byte-identical at every [-j].
    - {e environmental} fields — wall-clock, GC minor/major words
      allocated during the run. These depend on the machine and on which
      domain ran the trial and are excluded from every determinism diff
      ({!det_repr} and the ["deterministic"] JSON subtree omit them).

    Message classes: [p2p] player-to-player, [p2m] player-to-mediator,
    [m2p] mediator-to-player, [self] src = dst (the Section 6.1
    signalling channel). Runs without a mediator count everything as
    [p2p]/[self]. Start signals are not messages and are never counted. *)

val now : unit -> float
(** Monotonic clock ([CLOCK_MONOTONIC]), in seconds from an arbitrary
    origin. {!Builder} stamps [wall_clock] with it, so a system clock
    step cannot corrupt a run's measured duration. *)

type counts = { p2p : int; p2m : int; m2p : int; self : int }

val counts_zero : counts
val counts_total : counts -> int
val counts_add : counts -> counts -> counts

type t = {
  runs : int;  (** merged run count; 1 for a single run *)
  sent : counts;
  delivered : counts;
  dropped : counts;
  batches : int;  (** process activations that emitted effects *)
  steps : int;  (** delivery steps *)
  starved : int;  (** fairness-bound force-delivers overriding the scheduler *)
  invalid_decisions : int;  (** [Deliver id] with an unknown id, fell back to oldest *)
  scheduler_exns : int;  (** non-fatal scheduler exceptions, fell back to oldest *)
  injected_dup : int;  (** channel faults injected by a [Faults] plan, by kind *)
  injected_corrupt : int;
  injected_delay : int;
  injected_crash : int;  (** crash-restart windows that opened during the run *)
  timed_out : int;  (** runs ended by the fuel/wall watchdog ([Timed_out]) *)
  trial_retries : int;  (** harness-level trial re-runs (Verify.map_trials ?retries) *)
  wall_clock : float;  (** seconds; environmental *)
  gc_minor_words : float;  (** environmental *)
  gc_major_words : float;  (** environmental *)
}

val zero : t

val merge : t -> t -> t
(** Field-wise sum; associative, commutative, [zero] neutral. *)

val sent_total : t -> int
val delivered_total : t -> int
val dropped_total : t -> int

val injected_total : t -> int
(** Sum of the four injected-fault counters. *)

val retries : int -> t
(** A runless record ([runs = 0]) carrying [trial_retries = n]: the
    value the harness folds into an aggregate to account for re-run
    trials without polluting per-run distributions. *)

val det_fields : t -> (string * int) list
(** The deterministic counters as labelled scalars, fixed order. *)

val det_repr : t -> string
(** Canonical one-line rendering of {!det_fields} — the value the
    differential [-j 1] vs [-j N] harness compares byte-for-byte. *)

val pp : Format.formatter -> t -> unit
(** Full human rendering, environmental fields included. *)

val summary_line : t -> string
(** One deterministic line for experiment tables (no wall-clock/GC). *)

val to_json : t -> Json.t
(** [{"deterministic": {...}, "environmental": {...}}] — consumers diff
    the ["deterministic"] subtree only. *)

val of_json : Json.t -> t option
(** Inverse of {!to_json} (environmental fields included), for
    checkpoint restore. [None] on any missing or mistyped field — a
    checkpoint that does not parse must be recomputed, never
    half-restored. *)

val class_index : mediator:int option -> src:int -> dst:int -> int
(** 0 = p2p, 1 = p2m, 2 = m2p, 3 = self. *)

(** Mutable accumulator the driver fills while a run executes; [create]
    snapshots the clock and GC counters, [finish] takes the deltas. *)
module Builder : sig
  type metrics := t
  type t

  val create : mediator:int option -> t

  val reset : t -> mediator:int option -> unit
  (** Scrub-and-reuse: zero all counters/flags and re-snapshot the
      wall-clock/GC baselines in place, making the builder
      observationally identical to a fresh [create ~mediator] without
      allocating. Used by the session-recycling path
      ({!Sim.Runner.Slot}). *)

  val sent : t -> src:int -> dst:int -> unit
  val delivered : t -> src:int -> dst:int -> unit
  val dropped : t -> src:int -> dst:int -> unit
  val starved : t -> unit
  val invalid_decision : t -> unit
  val scheduler_exn : t -> unit
  val injected_dup : t -> unit
  val injected_corrupt : t -> unit
  val injected_delay : t -> unit
  val injected_crash : t -> unit
  val timed_out : t -> unit

  val finish : t -> batches:int -> steps:int -> metrics
end
