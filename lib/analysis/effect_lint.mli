(** Effect-discipline linter: checks that processes respect the one-shot
    game semantics of {!Sim.Types.effect} — at most one [Move], nothing
    after [Halt], sends stay in range, sequence numbers stay monotone,
    wills are only meaningful before the player moved.

    Two entry points:

    - {!wrap_all} instruments a process array {e before} a run: the
      wrappers observe every effect list a process emits (including
      effects the runner would silently normalise away, like a duplicate
      [Move] or a send to an out-of-range pid) and record findings into a
      collector. This is the only way to see wrapper-level misbehaviour —
      the runner's trace only shows what survived.
    - {!check_trace} lints a finished run's trace: send-after-halt,
      moves/halts of already-halted players, non-monotone per-channel
      sequence numbers, deliveries of never-sent messages.

    Severity: breaches the runner semantics forbid are [Error]s;
    in-protocol misbehaviour a Byzantine player is allowed (sending to an
    already-halted player, duplicate [Halt]) are [Warning]s. *)

val analyzer : string

type t
(** A findings collector shared by the wrappers of one run. *)

val create : n:int -> t
(** [n] is the number of processes (valid destinations are 0..n-1). *)

val wrap : t -> pid:int -> ('m, 'a) Sim.Types.process -> ('m, 'a) Sim.Types.process
(** Pass-through observer: forwards start/receive/will unchanged while
    recording discipline violations against the shadow state. *)

val wrap_all : t -> ('m, 'a) Sim.Types.process array -> ('m, 'a) Sim.Types.process array

val check_wills : t -> ('m, 'a) Sim.Types.process array -> unit
(** Call after the run: flags wills that still return an action for a
    player that already moved (the executor would ignore it; returning it
    is a latent protocol bug). Recorded as warnings. *)

val findings : t -> Finding.t list
(** Everything recorded so far, in order. *)

val check_trace : ?n:int -> 'a Sim.Types.outcome -> Finding.t list
(** Static lint of a finished run's trace. [n] defaults to the outcome's
    process count.
    @raise Invalid_argument on a run whose config did not record
    ([Sim.Runner.recorded_trace]): an empty trace would lint clean. *)
