(** Small combinatorics helpers used by the solution-concept checkers. *)

val subsets_upto : n:int -> max_size:int -> int list list
(** All subsets of {0..n-1} of size 1..max_size (the empty set excluded),
    each sorted ascending. *)

val subsets_exact : n:int -> size:int -> int list list
(** All subsets of {0..n-1} of exactly [size] elements. *)

val disjoint_pairs : n:int -> max_k:int -> max_t:int -> (int list * int list) list
(** All pairs (K, T) of disjoint subsets with 1 <= |K| <= max_k and
    0 <= |T| <= max_t. *)

val cartesian : 'a list list -> 'a list list
(** Cartesian product; [cartesian [xs; ys; zs]] lists all [x; y; z]. *)

val profiles : int array -> int array list
(** [profiles counts] enumerates all arrays p with 0 <= p.(i) < counts.(i):
    every pure action (or type) profile of a game. *)

val sub_profiles : int list -> int array -> int array list
(** [sub_profiles members counts] enumerates assignments to just the listed
    coordinates: each result r has length [List.length members], with
    r.(j) < counts.(List.nth members j). *)
