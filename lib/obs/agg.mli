(** Deterministic aggregation of per-run {!Metrics.t}.

    An [Agg.t] is owned by the submitting domain: trials executed through
    [Verify.map_trials] {e return} their metrics (a pure function of the
    trial seed) and the submitter folds them into the aggregate in seed
    order. Worker domains never touch it, so {!total}, {!summary} and
    every derived table value are byte-identical at any [-j]. (The sums
    are commutative anyway; the seed-order fold also fixes {!summary}'s
    per-run sample order, making the whole aggregate reproducible.)

    Memory is bounded: per-run samples feed fixed-size {!Hist}
    histograms (exact nearest-rank below {!Hist.exact_cap} runs; at
    most one log-bucket of error — [<= 6.25%] above value 255 —
    beyond it), never an O(runs) list. *)

type t

val create : unit -> t

val reset : t -> unit
(** Scrub-and-reuse: observationally [create ()], but the three
    histograms keep their bucket-array storage ({!Hist.reset}). *)

val add : t -> Metrics.t -> unit
(** Fold one run's (or one pre-merged group's) metrics in. Call in seed
    order from the submitting domain only. *)

val add_run : t -> Metrics.t -> unit
(** Alias of {!add} for call sites folding a single simulator run. *)

val count : t -> int
(** Total runs folded in (sum of [runs] fields). *)

val total : t -> Metrics.t
(** The merged metrics (field-wise sums). *)

val merge_into : dst:t -> t -> unit
(** Fold a whole aggregate into another — equivalent to replaying every
    [add] that built [src] against [dst]. The sharded engine merges
    per-shard aggregates in shard order with this, which keeps the
    result byte-identical to a single-shard run. *)

(** Percentile summaries over the per-run totals. Percentiles use
    nearest-rank on pure integer indices, so they carry no float
    rounding hazards. *)

type dist = { mean : float; p50 : int; p90 : int; p99 : int; max : int }

type summary = { runs : int; sent : dist; delivered : dist; steps : dist }

val summary : t -> summary
val summary_repr : summary -> string
(** Deterministic one-liner (participates in the [-j] differential). *)

val to_json : t -> Json.t
(** The complete aggregate state (totals and the three histograms, via
    {!Hist.to_json}) for engine checkpoints — not the human summary. *)

val of_json : Json.t -> t option
(** Inverse of {!to_json}; [None] on malformed input. A restored
    aggregate continues byte-identically to the original. *)
