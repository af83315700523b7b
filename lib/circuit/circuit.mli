(** Arithmetic circuits over {!Field.Gf}.

    The paper models the mediator as "an arithmetic circuit with at most c
    gates" (Section 4). A circuit here maps n player inputs plus a vector
    of random field elements to one output wire per player (the action
    recommendation). The same circuit is evaluated either in the clear (by
    the trusted mediator) or gate-by-gate on secret shares (by the
    asynchronous MPC substrate of Theorems 5.4/5.5). *)

type gate =
  | Input of int  (** [Input i]: the input of player i (0-based). *)
  | Random of int  (** [Random j]: the j-th shared random element. *)
  | Const of Field.Gf.t
  | Add of int * int  (** indices of earlier gates *)
  | Sub of int * int
  | Mul of int * int
  | Scale of Field.Gf.t * int

type t = private {
  n_inputs : int;
  n_random : int;
  random_moduli : int array;
      (** Per-slot randomness distribution: 0 means a uniform field
          element; m > 0 means uniform in [0, m). In the MPC substrate a
          mod-m slot is realised as a sum of private per-player
          contributions drawn mod m (so the wire carries a value in
          [0, n·(m-1)]); circuits built with {!Builder.table_lookup} fold
          the final reduction into an interpolated polynomial. *)
  gates : gate array;
  outputs : int array;  (** gate index providing each output wire *)
}

val create :
  ?random_moduli:int array ->
  n_inputs:int ->
  n_random:int ->
  gates:gate array ->
  outputs:int array ->
  unit ->
  t
(** Validates that every gate only references strictly earlier gates, input
    indices are in range, and outputs reference existing gates.
    @raise Invalid_argument otherwise. *)

val sample_randomness : t -> Random.State.t -> Field.Gf.t array
(** Draw the random vector according to [random_moduli] — what the trusted
    mediator does when evaluating the circuit in the clear. *)

val size : t -> int
(** Number of gates (the paper's [c]). *)

val depth : t -> int
(** Longest path through Add/Sub/Mul/Scale gates. *)

val mul_count : t -> int
(** Number of multiplication gates (dominates MPC cost). *)

val eval : t -> inputs:Field.Gf.t array -> random:Field.Gf.t array -> Field.Gf.t array
(** Evaluate in the clear. @raise Invalid_argument on arity mismatch. *)

val eval_with : t -> (gate -> 'a array -> 'a) -> 'a array
(** Generic evaluator: folds a user interpretation over the gates in order
    (the callback receives the gate and the array of already-computed gate
    values) and returns the output wires. Used by the MPC engine to run the
    same circuit on shares. *)

val identity_selector : n_inputs:int -> t
(** Circuit with one output per input, wired straight through — the
    "mediator forwards everyone's input" circuit. *)

val majority : n_inputs:int -> t
(** Circuit computing, for binary inputs, a value that is 1 iff the sum of
    inputs exceeds n/2, encoded arithmetically via a table-free threshold
    polynomial over {0..n}; each player's output wire is the majority bit.
    Used by the Byzantine-agreement example. *)

val sum : n_inputs:int -> t
(** Circuit outputting the field sum of all inputs to every player. *)

val coin_plus_input : n_inputs:int -> t
(** Circuit giving each player (input_i + r) where r is one shared random
    element: the "correlated random recommendation" pattern. *)

val random_circuit :
  Random.State.t -> n_inputs:int -> n_random:int -> n_gates:int -> n_outputs:int -> t
(** Random well-formed circuit (for scaling benchmarks over c). *)

val pp : Format.formatter -> t -> unit

(** Imperative construction helper used by the mediator specs. *)
module Builder : sig
  type circuit := t
  type t

  val create : n_inputs:int -> t

  val input : t -> int -> int
  (** Gate id carrying input [i] (emitted once, cached). *)

  val random : t -> ?modulus:int -> unit -> int
  (** Allocate a fresh randomness slot (uniform field element, or uniform
      mod [modulus]) and return the gate id carrying it. When [modulus] is
      given, the MPC realisation sums per-player mod-m contributions, so
      downstream consumers must treat the wire as a value in
      [0, n·(m-1)] and reduce via {!table_lookup} with an appropriate
      [domain]. *)

  val const : t -> Field.Gf.t -> int
  val add : t -> int -> int -> int
  val sub : t -> int -> int -> int
  val mul : t -> int -> int -> int
  val scale : t -> Field.Gf.t -> int -> int

  val sum : t -> int list -> int
  (** Balanced chain of additions; the empty list yields a zero constant. *)

  val table_lookup : t -> wire:int -> domain:int -> (int -> Field.Gf.t) -> int
  (** Gate computing f(w) for w in {0..domain-1}, where f is given by the
      table: interpolates the degree-(domain-1) polynomial through the
      table and evaluates it. The wire value MUST lie in the domain. *)

  val finish : t -> outputs:int array -> circuit
end
