(** Deterministic channel-level fault injection.

    The simulator's existing perturbations act at the process level
    (Byzantine transformers) or at the delivery-order level (adversarial
    schedulers). This module adds the third, orthogonal axis: faults of
    the {e channel} itself — duplication, in-transit corruption,
    unbounded delay, crash-restart windows — decided by a {!Plan.t} that
    is a pure function of a seed and a {!config}.

    Determinism contract (DESIGN.md §9): a plan's verdict for a message
    depends only on [(seed, src, dst, seq)] — the channel coordinates of
    Lemma 6.8's pattern alphabet — never on delivery order, wall-clock
    or domain count. Two runs over the same seeds therefore inject the
    same faults at any [-j], and every injected fault is counted in
    [Obs.Metrics] and emitted into the trace, keeping the trace's
    readers (the effect linter, the charts) sound.

    Which faults sit inside the paper's assumptions and which violate
    them is catalogued in DESIGN.md §11 ("Fault model"): [Delay] and
    [Crash_restart] are adversarial-scheduling phenomena the theorems
    already quantify over; [Duplicate] and [Corrupt] break the
    secure-channel model, so the chaos suite asserts {e detection}, not
    tolerance, for those. *)

type kind =
  | Duplicate  (** the message pattern is re-delivered once *)
  | Corrupt  (** payload mangled via the runner's per-message-type fuzz hook *)
  | Delay  (** delivery pinned past the starvation bound *)
  | Crash_restart
      (** the destination process is silent for a window of scheduler
          decisions, then resumes from its last state — unlike the
          permanent-crash Byzantine transformer, no state is lost *)

type config = {
  dup_rate : float;  (** P(duplicate) per message, in [0,1] *)
  corrupt_rate : float;  (** P(corrupt) per message *)
  delay_rate : float;  (** P(delay) per message *)
  crash_rate : float;  (** P(a crash-restart window) per process *)
  delay_decisions : int;
      (** how many scheduler decisions a delayed message is pinned for,
          measured from its enqueue decision; pick it above the runner's
          starvation bound to stress the fairness override *)
  crash_window : int;  (** length of a crash-restart window, in decisions *)
}

val none : config
(** All rates zero: a plan built from it never injects anything. *)

val make :
  ?dup:float ->
  ?corrupt:float ->
  ?delay:float ->
  ?crash:float ->
  ?delay_decisions:int ->
  ?crash_window:int ->
  unit ->
  config
(** Rates default to 0; [delay_decisions] to 1000; [crash_window] to 50.
    @raise Invalid_argument on a rate outside [0,1] or a non-positive
    window. *)

val of_string : string -> config
(** Parse a spec like ["dup=0.1,corrupt=0.05,delay=0.2,crash=0.1"]
    (optionally with [delay_decisions=N] / [crash_window=N] entries) —
    the format [ctmed run --faults] accepts.
    @raise Invalid_argument on malformed input. *)

val to_string : config -> string
(** Canonical spec string; [of_string (to_string c) = c]. *)

(** A sampled fault plan. *)
module Plan : sig
  type t

  val config : t -> config

  val make : seed:int -> config -> t
  (** Pure: two plans from equal [(seed, config)] give identical
      verdicts everywhere. *)

  val message_fault : t -> src:int -> dst:int -> seq:int -> kind option
  (** The fault (if any) injected on the [seq]-th message of channel
      [(src, dst)]. At most one kind per message; verdicts are
      independent across messages. *)

  val crash_window : t -> pid:int -> (int * int) option
  (** [Some (start, len)]: process [pid] is silent during scheduler
      decisions [start, start + len) — deliveries to it are deferred
      (never dropped) until the window closes. *)

  val custom :
    ?config:config ->
    ?crash:(pid:int -> (int * int) option) ->
    (src:int -> dst:int -> seq:int -> kind option) ->
    t
  (** Hand-written plan for targeted tests: [message_fault] delegates to
      the given function, [crash_window] to [?crash] (default: none).
      The caller is responsible for its determinism. *)
end
