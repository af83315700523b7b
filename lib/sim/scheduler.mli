(** Environment strategies ("schedulers").

    The paper resolves all non-probabilistic uncertainty by an environment
    strategy that picks which pending message is delivered next. A
    scheduler here sees only message {e patterns} — (src, dst, seq)
    triples, never payloads — matching the secure-channel assumption and
    the visibility used in the counting argument of Lemma 6.8.

    A scheduler value carries internal state; the constructors are
    factories. Decision state (round-robin cursor, adaptive counters,
    relaxed stop counters) is cleared by [reset], which [Runner.run]
    invokes at the start of every run, so reusing one scheduler value
    across a sweep no longer leaks adversary state between runs. Random
    streams are deliberately NOT reset: a reused [random]-family
    scheduler still explores different delivery orders per run (and a
    fresh one per seed stays the rule for seed-determinism, see
    [Verify.map_trials]). *)

type pattern_event =
  | P_sent of { src : int; dst : int; seq : int }
  | P_delivered of { src : int; dst : int; seq : int }
  | P_dropped of { src : int; dst : int; seq : int }
  | P_moved of int
  | P_halted of int
  | P_started of int
  | P_fault of { kind : Faults.kind; src : int; dst : int; seq : int }
      (** An injected channel fault (see [Faults]): schedulers observe
          faults like any other pattern event — the environment knows
          what it did to its own channels. *)

type t = {
  name : string;
  relaxed : bool;
      (** Relaxed schedulers (mediator game only, Section 5) may stop
          delivering; non-relaxed schedulers must eventually deliver
          everything (the driver enforces this with a starvation bound). *)
  history : bool;
      (** Whether [choose] reads its [~history] argument. This is a
          statement about the scheduler, not a tuning option: the runner
          builds the pattern history only for a scheduler that declares
          it and passes [[]] to every other, so a wrong [false] silently
          blinds the scheduler. Of the library schedulers only
          [adaptive_laggard] reads it. *)
  reset : unit -> unit;
      (** Clear per-run decision state (never random streams). Invoked by
          [Runner.run] before the first decision of every run. *)
  choose : step:int -> history:pattern_event list -> pending:Pending_set.t -> Types.decision;
      (** [history] is reverse-chronological, and [[]] unless the
          scheduler declares [history]. [pending] is always non-empty
          when called. *)
}

val fifo : unit -> t
(** Deliver in send order: the "synchronous-like" friendly scheduler. *)

val lifo : unit -> t
(** Deliver newest first (maximally reordering). *)

val random : Random.State.t -> t
(** Uniform among pending messages. *)

val random_seeded : int -> t
(** [random] with a private state seeded from an int. *)

val delay_player : victim:int -> Random.State.t -> t
(** Postpones every message to or from [victim] for as long as any other
    message is pending (the driver's starvation bound keeps it fair). The
    classic "eclipse one player" asynchronous adversary. *)

val delay_pair : a:int -> b:int -> Random.State.t -> t
(** Postpones traffic between [a] and [b] specifically. *)

val adaptive_laggard : Random.State.t -> t
(** Adaptive adversary: postpones all traffic from whichever player has
    sent the most messages so far — "slow down the leader". Decides from
    the pattern history alone. *)

val prioritise : players:int list -> Random.State.t -> t
(** Delivers messages sent by the listed players before anything else —
    the scheduler arm of a colluding adversary (Section 6.1). *)

val round_robin : unit -> t
(** Cycles over destination processes, delivering the oldest message for
    each in turn. *)

val relaxed_stop_after : int -> t
(** FIFO delivery for [k] deliveries, then stops delivery forever — the
    canonical relaxed scheduler that creates a deadlock (Lemma 6.10). *)

val relaxed_random : stop_prob:float -> Random.State.t -> t
(** FIFO delivery, but before each delivery stops forever with probability
    [stop_prob]. *)

val custom :
  ?reset:(unit -> unit) ->
  ?history:bool ->
  name:string ->
  relaxed:bool ->
  (step:int -> history:pattern_event list -> pending:Pending_set.t -> Types.decision) ->
  t
(** [?reset] defaults to a no-op: stateless custom schedulers need not
    care; stateful ones should clear their decision state there.
    [?history] defaults to [true], the safe statement for a [choose] the
    library cannot inspect; pass [false] when it ignores [~history]. *)

val standard_library : Random.State.t -> t list
(** The non-relaxed schedulers used when quantifying "for all σe" in
    experiments: fifo, lifo, random, round-robin and delay variants. *)
