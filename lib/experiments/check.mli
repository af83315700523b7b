(** Fixture catalog for the model checker — what `ctmed check` and
    `make check` run, what the bench `model_check` section measures and
    what the test suite pins.

    Fixtures span the layers the checker is meant to guard: plain vote
    protocols with known validity verdicts, the canonical mediator game
    Γd under a relaxed environment (Lemma 6.10's STOP-batch atomicity),
    and the Section 6.4 naive-protocol coalition stall — a genuinely
    positive counterexample the checker must find even under a tiny
    search cap. *)

type result = {
  pass : bool;
  ok : bool;  (** verdict matches the fixture's expectation *)
  repr : string;  (** [Analysis.Mc.repr] — canonical, diffable *)
  counterexample : string option;  (** pretty-printed, when violated *)
  findings : Analysis.Finding.t list;
  classes : int;
  deadlocks : int;
  stats : Analysis.Mc.stats;
  exhaustive : bool;
}

type fixture = {
  name : string;
  descr : string;
  expect_violation : bool;
  default_max_states : int;
  run :
    ?backend:Analysis.Mc.backend ->
    ?pool:Parallel.Pool.t ->
    ?max_states:int ->
    unit ->
    result;
}

val fixtures : fixture list
val names : string list
val find : string -> fixture option

val reduction :
  ?pool:Parallel.Pool.t -> ?naive_cap:int -> unit -> int * int * bool
(** [(dpor_runs, naive_runs, naive_capped)] on the pairs fixture, the
    bench/acceptance reduction-ratio measurement ([naive_cap] defaults
    to 50_000). *)
