(** Shared infrastructure for the experiments: table rendering and the
    standard measurement loops. Every experiment produces a {!table} so
    the bench harness and the CLI print identical artifacts (these are
    the "rows the paper reports" — here, the rows its theorems predict). *)

type table = {
  id : string;  (** e.g. "E1" *)
  title : string;
  claim : string;  (** the paper claim being checked *)
  header : string list;
  rows : string list list;
  verdict : string;  (** one-line pass/fail style summary *)
  metrics : Obs.Metrics.t option;
      (** aggregate message/step counters over every simulator run the
          experiment performed — deterministic fields are a pure
          function of [budget], like the rows (DESIGN.md section 10) *)
  complexity : Obs.Complexity.point list;
      (** observed message counts against the compiled plans' O(nNc)
          bounds, when the experiment sweeps protocol sizes *)
}

val print_table : table -> unit
(** Render the table; when [metrics] / [complexity] are present, a
    metrics summary line and the fitted complexity envelope are printed
    between the rows and the verdict. *)

val to_csv : table -> string
(** Header + rows as RFC-4180-ish CSV (cells quoted when needed). *)

val write_csv : dir:string -> table -> unit
(** Write [dir]/<id>.csv (creating [dir] if missing). *)

val f2 : float -> string
val f3 : float -> string
val f4 : float -> string

type budget = Smoke | Quick | Full
(** Quick keeps each experiment in the seconds range (used by `dune exec
    bench/main.exe`); Full multiplies sample counts for tighter Monte
    Carlo error; Smoke divides them (~1/8, at least 1) — the budget the
    differential test suite uses to replay every experiment twice. *)

val samples : budget -> int -> int
(** [samples b base] = max 1 (base/8) (Smoke), base (Quick) or 4x base
    (Full). *)

type ctx = {
  budget : budget;
  pool : Parallel.Pool.t;  (** trial seeds are sharded over its domains *)
  check_runs : bool;  (** lint every simulator run (fail fast) *)
}
(** How to execute an experiment. The table an experiment returns is a
    pure function of [budget] alone: [pool] only changes wall-clock and
    [check_runs] only adds failure modes, never rows. That determinism
    contract (see DESIGN.md section 9) is what test/test_parallel.ml's
    differential suite enforces. *)

val ctx : ?pool:Parallel.Pool.t -> ?check_runs:bool -> budget -> ctx
(** Defaults: the sequential pool, {!Cheaptalk.Verify.default_check_runs}. *)

(** Monte-Carlo measurement helpers on compiled plans. Trials run on
    [ctx.pool]; results are folded in seed order (see {!ctx}). *)

val map_trials : ctx -> samples:int -> seed:int -> (int -> 'a) -> 'a array
(** [map_trials ctx ~samples ~seed f] = [f] at every trial seed in
    [[seed, seed + samples)], in seed order — the sharded replacement
    for the experiments' [for s = 0 to samples - 1] sweeps. [f] must
    derive everything from its seed argument. *)

val map_trials_m :
  ctx -> m:Obs.Agg.t -> samples:int -> seed:int -> (int -> 'a * Obs.Metrics.t) -> 'a array
(** Like {!map_trials} for trials that also report their run metrics:
    each trial returns [(value, metrics)], the submitting domain folds
    the metrics into [m] in seed order, and the values come back as an
    array. The sharded replacement for hand-rolled sweeps that want
    message counts. *)

val sum_trials_m :
  ctx -> m:Obs.Agg.t -> samples:int -> seed:int -> (int -> float * Obs.Metrics.t) -> float
(** Sum of [map_trials_m] values. *)

val metrics_of : Obs.Agg.t -> Obs.Metrics.t option
(** The aggregate's total, or [None] when no runs were recorded — the
    value experiments put in their table's [metrics] field. *)

val honest_utilities :
  ?m:Obs.Agg.t -> ctx -> Cheaptalk.Compile.plan -> samples:int -> seed:int -> float array

val utilities_with :
  ?m:Obs.Agg.t ->
  ctx ->
  Cheaptalk.Compile.plan ->
  samples:int ->
  seed:int ->
  replace:(int -> (Mpc.Engine.msg, int) Sim.Types.process option) ->
  float array

val implementation_distance :
  ?m:Obs.Agg.t ->
  ctx -> Cheaptalk.Compile.plan -> types:int array -> samples:int -> seed:int -> float

val scheduler_of : int -> Sim.Scheduler.t
(** The default scheduler family for sampling: seeded uniform-random
    (fresh per seed, as the pool contract requires). *)
