(** Asynchronous binary Byzantine agreement (t < n/3), in the style of
    Mostefaoui-Moumen-Raynal, with a pluggable round coin ({!Coin}).

    Guarantees for f < n/3 faulty players, assuming all honest players
    eventually propose:
    - {b Validity}: a decided value was proposed by some honest player.
    - {b Agreement}: no two honest players decide differently.
    - {b Termination}: with a common coin, all honest players decide after
      expectedly O(1) rounds; each then halts after collecting n-f DECIDE
      announcements.

    A session is a passive state machine driven by the embedding process:
    the MPC engine runs one per input-core vote and per multiplication
    vote. *)

type msg =
  | Bval of { round : int; value : bool }
  | Aux of { round : int; value : bool }
  | Decide of bool

val pp_msg : Format.formatter -> msg -> unit

type t

val create : n:int -> f:int -> me:int -> coin:Coin.t -> t
(** @raise Invalid_argument unless n > 3f. *)

type reaction = {
  sends : (int * msg) list;
  decided : bool option;  (** set (once) at the moment of decision *)
}

val propose : t -> bool -> reaction
(** Enter round 1 with the given estimate.
    @raise Invalid_argument if already proposed. *)

val handle : t -> src:int -> msg -> reaction

val decision : t -> bool option
val halted : t -> bool
(** True once n-f DECIDEs are in: the session ignores further messages. *)

val round : t -> int
(** Current round (1-based); useful for round-count experiments. *)
