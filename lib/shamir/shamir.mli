(** Shamir secret sharing over {!Field.Gf} with robust (Reed-Solomon)
    reconstruction.

    A degree-t sharing assigns player i (1-indexed evaluation point i) the
    value f(i) of a random polynomial f with f(0) = secret and deg f <= t.
    Any t+1 correct shares reconstruct; with Berlekamp-Welch decoding,
    reconstruction tolerates up to e corrupted shares out of m provided
    m >= (t + 1) + 2e — the property that gives asynchronous MPC its n > 4t
    resilience (BCG) in the paper's Theorem 5.4. *)

type share = { index : int; value : Field.Gf.t }
(** The share of player [index] (1-based evaluation point). *)

val share : Random.State.t -> n:int -> t:int -> secret:Field.Gf.t -> share array
(** [share rng ~n ~t ~secret] produces shares for players 1..n with
    threshold degree [t]. @raise Invalid_argument unless 0 <= t < n. *)

val reconstruct : t:int -> share list -> Field.Gf.t option
(** Plain Lagrange reconstruction from at least t+1 shares, assuming all of
    them are correct. Returns [None] if fewer than t+1 shares are given,
    indices are duplicated, or an index is out of range (outside
    [1, {!max_index}]). Wrong shares yield a wrong (undetected) secret:
    use {!reconstruct_robust} against active adversaries.

    Hot path: the at-zero Lagrange weights for the leading t+1 indices are
    memoised per domain, so reconstructions over a recurring index set cost
    t+1 multiplications each after warmup. *)

val max_index : int
(** Largest accepted share index (1-based evaluation points). Functions
    taking share lists treat indices outside [1, max_index] as invalid
    ([None]/[false]) rather than failing deep inside interpolation. *)

val decode :
  degree:int -> max_errors:int -> (Field.Gf.t * Field.Gf.t) list -> Field.Poly.t option
(** Berlekamp-Welch: recover the unique polynomial of degree <= [degree]
    agreeing with all but at most [max_errors] of the points, or [None] if
    no such polynomial exists or there are too few points
    (needs >= degree + 1 + 2*max_errors points).

    Fast path: the leading degree+1 points are interpolated with cached
    Lagrange basis polynomials and certified against every point; when at
    most [max_errors] disagree that interpolant is the (unique) answer and
    the Q/E linear system is skipped. The slow path eliminates in place
    over a per-domain scratch matrix — no copies per solve. *)

val decode_arrays :
  degree:int ->
  max_errors:int ->
  Field.Gf.t array ->
  Field.Gf.t array ->
  Field.Poly.t option
(** {!decode} over parallel x/y arrays — the allocation-lean entry point
    for hot callers that already hold arrays. The arrays are not modified.
    @raise Invalid_argument on length mismatch. *)

val reconstruct_robust : t:int -> max_errors:int -> share list -> Field.Gf.t option
(** Robust reconstruction: decodes the degree-t polynomial tolerating up to
    [max_errors] corrupted shares, then returns f(0). *)

val verify_consistent : t:int -> share list -> bool
(** True iff the shares all lie on a single polynomial of degree <= t. *)

val lagrange_at_zero : int list -> (int * Field.Gf.t) list
(** [lagrange_at_zero indices] gives, for each (1-based) evaluation point j
    in [indices], the Lagrange coefficient λ_j such that f(0) = Σ λ_j·f(j)
    for any polynomial of degree < |indices|. Used by the GRR degree
    reduction in the MPC engine. @raise Invalid_argument on duplicates. *)

val online_decode_arrays :
  t:int -> max_faults:int -> int array -> Field.Gf.t array -> Field.Gf.t option
(** Online error correction (BCG): given the shares received {e so far}
    (as parallel 1-based index and value arrays), return the secret as
    soon as it is certain — i.e. some degree-t polynomial agrees with all
    but e of the points for an e with [received >= 2*t + 1 + e] (so at
    least t+1 honest points pin the polynomial, assuming at most
    [max_faults] <= t corrupt shares overall). Returns [None] if no
    certification is possible yet.
    @raise Invalid_argument on length mismatch. *)

(** {1 Cache control}

    The Lagrange caches and the Berlekamp-Welch scratch are per-domain
    ([Domain.DLS]): no cross-domain mutation, and since they memoise pure
    functions of their keys, results are byte-identical with or without
    them at any domain count (the determinism contract of DESIGN.md §9). *)

val clear_caches : unit -> unit
(** Drop the calling domain's Lagrange coefficient/basis caches (the
    scratch matrix is kept). Only needed by benchmarks measuring the
    cold-cache path and by tests. *)

val cache_size : unit -> int
(** Number of memoised entries in the calling domain's caches. *)

(** The naive pre-optimisation kernels — full [Poly.interpolate] per
    reconstruction, one freshly allocated + copied linear system per
    decode, a Hashtbl per duplicate check, one field inversion per
    Lagrange denominator. Reference implementations for the differential
    qcheck tests and the cached-vs-naive micro-benchmarks; not for
    production use. Unlike the optimised kernels they do not reject
    out-of-range indices. *)
module Ref : sig
  val distinct_indices : share list -> bool

  val reconstruct : t:int -> share list -> Field.Gf.t option

  val decode :
    degree:int -> max_errors:int -> (Field.Gf.t * Field.Gf.t) list -> Field.Poly.t option

  val reconstruct_robust : t:int -> max_errors:int -> share list -> Field.Gf.t option

  val lagrange_at_zero : int list -> (int * Field.Gf.t) list
end
