(** The many-session throughput engine (DESIGN.md §15).

    Production load for the paper's protocols is not one big run but
    huge numbers of small sessions — each game replaces its own
    mediator. This engine runs [sessions] independent sessions, seeds
    [0 .. sessions-1], sharded over a {!Parallel.Pool}:

    - sessions are split into [shards] contiguous seed ranges; shards
      are the work-stealing unit ([Pool.map_seeded ~chunk:1] over shard
      indices), so an uneven shard does not idle the other domains;
    - each shard folds its completed sessions into bounded-memory
      accumulators ({!Obs.Agg} + {!Obs.Hist} — O(1) in session count,
      never a per-session list) the moment they finish;
    - shard accumulators are merged in shard order on the submitting
      domain.

    Each shard runs its sessions one at a time, in seed order, on the
    run function picked once per shard: {!Sim.Runner.run} on Sim,
    {!Transport.Live.run} ({!Sim.Runner.run} over fiber-hosted
    processes) on Live. Only the served-session benchmark's coord5-live
    workload selects Live; every other caller runs on Sim.

    {b Steady-state allocation.} The per-completion fold allocates
    nothing proportional to the session's message count. A workload
    built with the default [Runner.config] (unrecorded) keeps no trace
    nodes per delivery, and one whose scheduler reads no history keeps
    no pattern nodes; the runner then builds no event per delivery at
    all. [ctmed serve], {!Toy} and the served-session benchmark's
    untraced runs all build their sessions so: a compiled coord5
    session allocates about 60 minor words per delivered message
    (test_cheaptalk's [alloc] budget holds it under 80).

    {b Determinism contract.} Everything in {!det_repr} is a pure
    function of (sessions, the workload, the per-session seeds): every
    accumulator is insertion-order independent (sums, histograms,
    key-sorted count tables), so the result is byte-identical at any
    [shards], any pool size [-j] and across the Sim/Live backends.
    Wall-clock, throughput rates and latency percentiles are
    environmental and live outside {!det_repr}. *)

module Toy = Toy
(** The reference toy workload (re-exported: the library root shadows
    sibling modules). *)

type stats = {
  sessions : int;
  completed : int;  (** sessions that terminated [All_halted] *)
  profiles : (string * int) list;
      (** outcome-profile counts (termination + moves), key-sorted *)
  agg : Obs.Agg.t;  (** per-session metrics aggregate (deterministic) *)
  latency : Obs.Hist.t;
      (** per-session wall latency in µs — environmental, never in
          {!det_repr} *)
  wall_s : float;  (** submission-to-merge wall time — environmental *)
  alloc_words : float;
      (** GC words (minor + major − promoted) allocated across all
          shards while their sessions executed — the allocation budget
          the perf gate tracks as [words_per_session]. Environmental,
          never in {!det_repr} (like wall-clock: it depends on the
          runtime, not the workload's deterministic behaviour). *)
}

exception Interrupted
(** {!run} stopped at a checkpoint boundary because [kill_switch]
    returned true. Every shard's progress is already persisted in the
    journal directory; re-run with [~resume:true] to continue. *)

val run :
  ?backend:Transport.Backend.t ->
  ?shards:int ->
  ?inflight:int ->
  ?recycle:bool ->
  ?pool:Parallel.Pool.t ->
  ?journal:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?kill_switch:(unit -> bool) ->
  ?on_warning:(string -> unit) ->
  ?meta:Obs.Json.t ->
  sessions:int ->
  make:(seed:int -> ('m, 'a) Sim.Runner.config) ->
  profile:('a Sim.Types.outcome -> string) ->
  unit ->
  stats
(** Run [sessions] sessions with seeds [0 .. sessions-1]. [make] must
    be a pure function of the seed (the usual trial contract).
    Defaults: [backend = Sim], [shards = 1], [recycle = true],
    [pool = Parallel.Pool.sequential]. [backend] and [inflight] stay
    for the served-session benchmark, which passes both; [inflight] is
    validated and has no other effect: sessions run one at a time on
    both backends.

    {b Session recycling} (DESIGN.md §17). With [recycle] (the default)
    each shard reuses driver state across its sessions via one
    {!Sim.Runner.Slot}, on both backends, so per-session setup stops
    allocating after the shard's first session. Observationally
    invisible: {!det_repr} is byte-identical with recycling on or off
    (the qcheck differential suite and [ctmed serve --smoke] both
    enforce this); [~recycle:false] is the escape hatch that forces
    fresh per-session state.

    {b Durability} (DESIGN.md section 16). With [~journal:dir] the run
    is crash-restartable: each shard executes in chunks of
    [checkpoint_every] seeds (default 1024) and after every chunk
    atomically replaces its [shard-NNNN.json] file — the complete
    accumulator state plus the next seed — while [manifest.json] pins
    the run's deterministic parameters (sessions, shards).
    Sessions run in seed order, so a checkpoint always describes a
    seed-prefix of the shard. A run restarted with
    [~resume:true] (same sessions/shards) reloads every shard
    file and continues from the persisted seeds on [backend]; a
    ["backend"] field in an older manifest is ignored, since the two
    backends produce the same sessions. Because within-shard
    fold order is seed order either way, the resumed {!det_repr} is
    byte-identical to an uninterrupted run's — this holds across
    SIGKILL since the worst case merely loses the tail since the last
    checkpoint and recomputes it. Resuming a finished journal re-runs
    nothing and returns the final stats. A missing or damaged shard
    file is reported through [on_warning] and that shard is recomputed
    from scratch (slower, still exact); a missing or damaged manifest
    is unrecoverable and raises [Failure].

    [kill_switch] is polled at every checkpoint boundary (wire it to a
    signal flag for graceful shutdown); when it returns true the run
    stops after persisting and raises {!Interrupted}. [meta] is stored
    verbatim in the manifest under ["workload"] so a CLI can rebuild
    the same [make] on resume — see {!load_manifest}.

    @raise Invalid_argument if [sessions < 0], [shards < 1],
    [inflight < 1], [checkpoint_every < 1], [resume] without [journal],
    or resume parameters contradicting the manifest.
    @raise Failure when resuming and the manifest is missing/corrupt. *)

val load_manifest : dir:string -> Obs.Json.t
(** The journal's manifest document (run parameters + the caller's
    ["workload"] metadata).
    @raise Failure when missing or unparseable ("unrecoverable"). *)

val det_repr : stats -> string
(** The deterministic digest the differential tests byte-compare:
    session/completion counts, profile distribution, aggregate summary
    and merged deterministic metric counters. *)

val sessions_per_min : stats -> float
val messages_per_sec : stats -> float
(** Delivered messages per second. Environmental. *)

val latency_us : stats -> int * int
(** (p50, p99) session latency in µs. Environmental. *)

val words_per_session : stats -> float
(** Allocated GC words per session ([alloc_words / sessions]) — the
    allocation budget surfaced in the bench throughput section and
    gated lower-is-better by [--baseline]. Environmental. *)

val throughput_line : stats -> string
(** One-line environmental summary (rates + latency percentiles) for
    CLI output — kept apart from {!det_repr} by construction. *)
