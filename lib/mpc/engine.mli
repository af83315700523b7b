(** Asynchronous secure multiparty computation over an arithmetic circuit —
    the substrate behind the paper's Theorems 5.4/5.5 (BCG for n > 4t
    errorless, BKR for n > 3t with ε error), used by the cheap-talk
    compiler to simulate the mediator.

    One engine instance is one player's state. Protocol outline:

    + {b Input phase}: every player AVSS-shares its input and its
      contributions to the circuit's shared randomness; one {!Agreement.Aba}
      per dealer agrees on the input core set (>= n-t dealers). Inputs of
      excluded dealers default to 0, mirroring Lemma 6.8's arbitrary
      extension of the received input profile.
    + {b Evaluation}: linear gates are local; each multiplication gate runs
      a GRR degree reduction — every player reshapes its product share via
      AVSS and a per-gate common-subset agreement picks >= 2t+1
      contributors whose reshared values are combined with Lagrange
      coefficients.
    + {b Output}: player i's output wire shares are sent to player i only
      (recommendations are private); reconstruction uses online error
      correction, tolerating up to t corrupted shares.

    Fault model: t < n/4 (BCG mode) gives the errorless guarantees used by
    Theorem 4.1; running at t < n/3 corresponds to BKR/Theorem 4.2 where a
    Byzantine dealer or unlucky scheduling can cause an ε-probability
    failure. Active wrong-value resharing at multiplication gates is not
    verified (that is the companion-paper [10] machinery); see DESIGN.md. *)

type session_id =
  | Input_share of int  (** dealer *)
  | Rand_share of int * int  (** dealer, randomness slot *)
  | Mul_share of int * int  (** gate index, dealer *)

type vote_id =
  | Input_vote of int
  | Mul_vote of int * int

type msg =
  | Share_msg of session_id * Avss.msg
  | Vote_msg of vote_id * Agreement.Aba.msg
  | Output_msg of int * Field.Gf.t
      (** (stage, share of the recipient's output wire for that stage) *)

val pp_msg : Format.formatter -> msg -> unit

type t

val create :
  ?stages:int array array ->
  n:int ->
  degree:int ->
  faults:int ->
  me:int ->
  circuit:Circuit.t ->
  input:Field.Gf.t ->
  rng:Random.State.t ->
  coin_seed:int ->
  unit ->
  t
(** [degree] is the sharing degree — the privacy threshold, [k+t] in the
    cheap-talk compiler; [faults] bounds how many players may actively
    misbehave (quorums and error correction absorb that many). [rng]
    drives this player's own secret randomness; [coin_seed] is the shared
    ABA coin seed (common to all players of one run).
    [stages] (default: a single stage made of the circuit's outputs) lets
    the mediator send several messages per player: each stage names one
    output gate per player, and a player sends its stage-s shares only
    after reconstructing its own stage s-1 value — the mediator's s-th
    message follows its (s-1)-th. The final stage is the recommendation
    returned via [result].
    @raise Invalid_argument unless n > 3·faults,
    n >= degree + 2·faults + 1, the circuit has n inputs (and each stage n
    outputs), and (when the circuit multiplies)
    n >= 2·degree + faults + 1. *)

type reaction = {
  sends : (int * msg) list;
  result : Field.Gf.t option;  (** our reconstructed output, set once *)
}

val start : t -> reaction
(** Kick off the input phase (call from the process start signal). *)

val handle : t -> src:int -> msg -> reaction

val result : t -> Field.Gf.t option

val stage_results : t -> Field.Gf.t option array
(** Per-stage reconstructed values so far (last = [result]). *)

val input_core : t -> int list option
(** The agreed core set of input dealers, once known (sorted pids). *)
