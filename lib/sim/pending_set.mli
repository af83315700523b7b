(** The set of in-flight messages, as the scheduler sees it: message
    patterns only, never payloads. Backed by an intrusive doubly-linked
    list so the common scheduler moves (oldest, newest, random nth) cost
    no allocation per decision. *)

type t

val count : t -> int
val is_empty : t -> bool

val oldest : t -> Types.pending_view
(** @raise Invalid_argument when empty. *)

val newest : t -> Types.pending_view
(** @raise Invalid_argument when empty. *)

val nth : t -> int -> Types.pending_view
(** [nth s i] is the i-th view in send order (0 = oldest).
    @raise Invalid_argument when out of range. *)

val iter : t -> (Types.pending_view -> unit) -> unit
(** In send order. *)

val find : t -> (Types.pending_view -> bool) -> Types.pending_view option

val choose_where :
  t -> (Types.pending_view -> bool) -> rng:Random.State.t -> Types.pending_view option
(** Uniformly random element satisfying the predicate (two walks, no
    allocation), or [None] when none does. *)

val to_list : t -> Types.pending_view list
(** Send order. Allocates; for custom schedulers that need the whole set. *)

(** {1 Owner interface (the driver)} *)

type node

val create : unit -> t

val clear : t -> unit
(** Empty the set in O(1): the list head/tail/size are reset and every
    node becomes garbage. Node handles obtained before [clear] must not
    be passed to {!remove} afterwards. Used by session recycling. *)

val append : t -> Types.pending_view -> node
val remove : t -> node -> unit
(** Idempotent. *)

val view_of : node -> Types.pending_view
