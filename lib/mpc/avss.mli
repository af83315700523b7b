(** Asynchronous verifiable secret sharing (BCG-style, simplified).

    The dealer embeds its secret in a random symmetric bivariate
    polynomial B (degree t in each variable, B(0,0) = secret) and sends
    player i the row polynomial f_i(y) = B(i, y). Players cross-check
    pairwise: i sends j the point f_i(j), and j checks it against f_j(i)
    (equal by symmetry). A player that holds a row confirmed by 2t+1
    points announces READY; 2t+1 READY announcements make a player accept
    its share s_i = f_i(0) — a degree-t Shamir share of the secret (the
    sharing polynomial is x ↦ B(x, 0)).

    A player whose row never arrives (faulty dealer) recovers it from the
    cross points: the points {(j, p_ji)} it receives lie on its row, so
    Berlekamp-Welch decoding with certification against >= 2t+1 points
    reconstructs the row once enough honest points are in.

    Guarantees (f <= t < n/3 faulty; exact for honest dealers, and the
    recovery path covers dealer crash-after-partial-dealing; a fully
    Byzantine dealer can, with small probability under adversarial
    scheduling, keep acceptance split — the ε of the paper's Theorem 5.5;
    see DESIGN.md):
    - if the dealer is honest, every honest player accepts, and the
      accepted shares interpolate the dealt secret;
    - if any honest player accepts, the READY amplification drives every
      honest player to accept a share of the same polynomial. *)

type msg =
  | Row of Field.Poly.t  (** dealer -> player i: f_i *)
  | Point of Field.Gf.t  (** i -> j: f_i(j) *)
  | Ready

val pp_msg : Format.formatter -> msg -> unit

type t

val create : n:int -> degree:int -> faults:int -> me:int -> dealer:int -> t
(** [degree] is the sharing degree (privacy threshold — [k+t] in the
    cheap-talk compiler); [faults] the number of Byzantine players the
    quorums must absorb. @raise Invalid_argument unless n > 3·faults and
    n >= degree + 2·faults + 1. *)

type reaction = {
  sends : (int * msg) list;
  accepted : Field.Gf.t option;  (** our share, at the moment of acceptance *)
}

val deal : t -> Random.State.t -> secret:Field.Gf.t -> reaction
(** Dealer's first move. @raise Invalid_argument if [me <> dealer]. *)

val handle : t -> src:int -> msg -> reaction

val share : t -> Field.Gf.t option
(** Our accepted share, if acceptance happened. *)

val is_accepted : t -> bool

val corroboration : t -> int
(** Points that match our held row: 1 for our own, plus every received
    point on the row; 0 while no row is held. The READY rules compare it
    with [degree + faults + 1] and [degree + 1]. It is kept as a counter:
    recounted once when the row is set (dealt, received or recovered),
    then raised by 1 for each new point on it. *)

(** The counter's reference, recomputed from every received point (as
    [Shamir.Ref] keeps the naive kernels); tests check the two agree. *)
module Ref : sig
  val matching_points : t -> int
end
