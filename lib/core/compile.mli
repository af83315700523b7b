(** The paper's contribution: compiling a mediator-game strategy profile
    into an asynchronous cheap-talk protocol.

    Given a mediator spec (the canonical-form, minimally informative
    strategy σ + σd of Lemma 6.8) and the deviation budget (k rational, t
    malicious), [plan] selects the construction of one of the four upper
    bound theorems and [processes] instantiates the per-player cheap-talk
    protocols: each player feeds its encoded type into the asynchronous
    MPC substrate evaluating the mediator's circuit, then plays the
    recommendation its private output decodes to.

    | Theorem | Bound        | Guarantee                  | Extras |
    |---------|--------------|----------------------------|--------|
    | 4.1     | n > 4k+4t    | exact, (k,t)-robust        | works for every utility variant; AH or default-move |
    | 4.2     | n > 3k+3t    | ε, ε-(k,t)-robust          | utilities bounded by M/2 |
    | 4.4     | n > 3k+4t    | exact, (k,t)-robust        | needs a (k+t)-punishment; AH wills carry it |
    | 4.5     | n > 2k+3t    | ε, ε-(k,t)-robust          | needs a (2k+2t)-punishment; AH wills |

    The sharing degree is k+t in all four (recommendations must stay
    hidden from any coalition the solution concept quantifies over); the
    active-fault budget the quorums absorb is k+t for 4.1/4.2 (no
    punishment, so rational deviators may do anything) and t for 4.4/4.5
    (punishment deters rational players from protocol-level sabotage). *)

type theorem = Analysis.Thresholds.theorem = T41 | T42 | T44 | T45
(** Re-exported from {!Analysis.Thresholds}, the centralised parameter
    validator all four preconditions now live in. *)

val theorem_name : theorem -> string
val pp_theorem : Format.formatter -> theorem -> unit

type approach = Default_move | Ah_wills
(** What happens to a player that never moves (Section 1): a default move
    imposed by the game description, or the action named in the player's
    "will". Theorems 4.4/4.5 require [Ah_wills] (the punishment lives in
    the wills). *)

val required_n : theorem -> k:int -> t:int -> int
(** The smallest n the theorem's bound admits. *)

type plan = private {
  spec : Mediator.Spec.t;
  theorem : theorem;
  k : int;
  t : int;
  approach : approach;
  degree : int;  (** MPC sharing degree = k + t *)
  faults : int;  (** active-fault budget: k+t (4.1/4.2) or t (4.4/4.5) *)
}

val plan :
  ?approach:approach ->
  spec:Mediator.Spec.t ->
  theorem:theorem ->
  k:int ->
  t:int ->
  unit ->
  (plan, string) result
(** Validates the theorem's threshold against the spec's player count,
    the presence of a punishment profile for 4.4/4.5 (which also force
    [Ah_wills]), and the MPC substrate's arity requirements. *)

val plan_exn :
  ?approach:approach -> spec:Mediator.Spec.t -> theorem:theorem -> k:int -> t:int -> unit -> plan

val plan_memo :
  ?approach:approach ->
  spec:Mediator.Spec.t ->
  theorem:theorem ->
  k:int ->
  t:int ->
  unit ->
  (plan, string) result
(** Exactly {!plan}, memoised per domain (Domain.DLS, like the Shamir
    Lagrange caches): the same (spec, theorem, k, t, approach) computes
    once per domain and every caller shares the {e same} immutable plan
    record — physical sharing a standing service and the threshold-atlas
    sweep rely on. The spec keys by physical identity ([==], specs carry
    closures); a structurally-equal-but-distinct spec is a cache miss,
    never a wrong hit, so results are byte-identical with or without the
    cache at any domain count. *)

val plan_memo_exn :
  ?approach:approach -> spec:Mediator.Spec.t -> theorem:theorem -> k:int -> t:int -> unit -> plan

val clear_caches : unit -> unit
(** Empty the calling domain's plan-memo table (test hook). *)

val cache_size : unit -> int
(** Number of memoised plans in the calling domain's table (test hook). *)

val player_process :
  plan ->
  me:int ->
  type_:int ->
  coin_seed:int ->
  seed:int ->
  (Mpc.Engine.msg, int) Sim.Types.process
(** The honest cheap-talk strategy σ_CT for one player. Its will is the
    punishment action under [Ah_wills] (when the spec provides one). *)

val processes :
  plan ->
  types:int array ->
  coin_seed:int ->
  seed:int ->
  (Mpc.Engine.msg, int) Sim.Types.process array
(** All n honest players. Adversarial experiments replace entries. *)

val message_bound : plan -> int
(** The paper's asymptotic message budget for one history, instantiated
    with explicit constants — O(nNc) for 4.1/4.2/4.4-strong, O(nc) for the
    weak variants. Used as a sanity ceiling in experiments. *)
