(** Small demo protocols for the analyzers: each is a [make] function in
    the {!Sim.Explore} sense (fresh processes on every call), small enough
    for exhaustive interleaving so the race detector's verdicts can be
    cross-validated against ground truth. Used by `ctmed lint` and the
    analysis test suite. *)

val ping_pong : unit -> (int, int) Sim.Types.process array
(** Two players, one message each way, both move — confluent. *)

val threshold_sum : unit -> (int, int) Sim.Types.process array
(** Players 0 and 1 send their value to a collector that moves the sum
    once both arrived. Outcome-confluent, but effect-level racy: the
    collector's emission happens in whichever activation crosses the
    threshold (the benign race every quorum protocol exhibits). *)

val order_bug : unit -> (int, int) Sim.Types.process array
(** The deliberate schedule-sensitivity bug: a judge moves the {e first}
    value it receives, so the scheduler picks the outcome. The race
    detector must report an outcome race here and {!Sim.Explore} must
    find non-confluent moves — the seeded-bug fixture of `ctmed lint
    --seeded-bug`. *)

val byzantine_echo : unit -> (int, int) Sim.Types.process array
(** Two honest players exchange their value and move on the honest
    peer's message; player 2 is Byzantine and sends a different lie to
    each. Honest moves are confluent despite the faulty traffic. *)

val quorum_vote : n:int -> zeros:int -> unit -> (int, int) Sim.Types.process array
(** One-shot majority vote, players 0..n-2 honest (vote 1, broadcast),
    player n-1 Byzantine sending [zeros] copies of vote 0 to every honest
    player. An honest player decides the majority of its own vote plus the
    first n-1 received votes. With [n:4 zeros:1] every schedule decides 1
    (validity holds, a clean {!Mc} fixture); with [n:3 zeros:2] the
    environment can deliver both forged zeros first and an honest player
    decides 0 — the below-threshold violation whose minimized
    counterexample is two deliveries. *)

val quorum_validity : int Mc.property
(** Every honest player that decided, decided 1 (evaluated on willed
    moves, so stopped cuts are covered too). *)

val pairs : m:int -> unit -> (int, int) Sim.Types.process array
(** [m] fully independent request/reply pairs — the partial-order
    reduction showcase: no two deliveries share a destination outside
    their causal chain, so DPOR explores exactly one interleaving while
    naive enumeration pays the full product of linear extensions
    (2,217,600 histories at m = 3). *)
