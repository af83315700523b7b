(** Human-readable rendering of simulator traces: a textual message
    sequence chart and summary statistics. Intended for debugging
    protocols and for the examples — the trace is exactly the message
    pattern of Lemma 6.8, so this is also "what the environment saw". *)

val chart : ?limit:int -> 'a Types.outcome -> string
(** A line-per-event sequence chart: sends as [i --seq--> j], deliveries
    as [i ==seq==> j], drops as [i xxseqxx| j  DROPPED] (visually
    distinct from a delivery in long traces), injected faults with
    per-kind glyphs ([++ dup], [~~ corrupt], [.. delay], [!!CRASH!!]),
    moves and halts. [limit] truncates long traces (default 200 events)
    with a trailing summary line.
    @raise Invalid_argument on a run whose config did not record
    ([Runner.recorded_trace]). *)

type stats = {
  sends_per_pair : ((int * int) * int) list;  (** sorted, descending *)
  moves : (int * int) list;  (** (player, internal move order index) *)
  halted_players : int list;
}

val stats : 'a Types.outcome -> stats
(** @raise Invalid_argument on a run whose config did not record. *)

val pp_stats : Format.formatter -> stats -> unit
