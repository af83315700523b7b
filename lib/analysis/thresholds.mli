(** Centralised threshold / parameter validation for the four upper-bound
    theorems.

    Every precondition the compiler and the MPC substrate rely on lives
    here, once: the n > 4k+4t / 3k+3t / 3k+4t / 2k+3t player bounds, the
    punishment-profile requirements of Theorems 4.4/4.5, and the sharing
    arities of the substrate (quorum intersection n > 3f, reconstruction
    n >= d + 2f + 1, degree reduction n >= 2d + f + 1 when the circuit
    multiplies). {!validate} is the strict gate {!Cheaptalk.Compile.plan}
    uses (first violated precondition, as an error message); {!diagnose}
    reports {e every} violated precondition as a finding with the exact
    numbers, for `ctmed lint`. *)

type theorem = T41 | T42 | T44 | T45

val all : theorem list
val name : theorem -> string
val pp : Format.formatter -> theorem -> unit

val required_n : theorem -> k:int -> t:int -> int
(** The smallest n the theorem's bound admits (bound + 1). *)

val ok : theorem -> n:int -> k:int -> t:int -> bool

val needs_punishment : theorem -> bool
(** True for 4.4/4.5 (the AH wills carry an m-punishment). *)

val degree : k:int -> t:int -> int
(** MPC sharing degree, k+t in all four theorems. *)

val faults : theorem -> k:int -> t:int -> int
(** Active-fault budget the quorums absorb: k+t for 4.1/4.2, t for
    4.4/4.5. *)

type instance = {
  theorem : theorem;
  n : int;
  k : int;
  t : int;
  has_punishment : bool;  (** the spec carries a punishment profile *)
  multiplies : bool;  (** the mediator circuit has multiplication gates *)
}

val check_sharing :
  n:int -> degree:int -> faults:int -> multiplies:bool -> Finding.t list
(** Just the substrate arity preconditions, for arbitrary (d, f) — used to
    lint sharing parameters independently of a theorem (e.g. a degree
    bumped past k+t). *)

val diagnose : instance -> Finding.t list
(** Every violated precondition, each with a precise diagnostic. Empty
    exactly when {!validate} returns [Ok]. *)

val validate : instance -> (unit, string) result
(** First violated precondition in the order {!Cheaptalk.Compile.plan}
    historically checked them (the error strings are part of the CLI
    surface). *)
