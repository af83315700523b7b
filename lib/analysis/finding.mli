(** Findings reported by the protocol analyzers.

    Every analyzer (model checker, effect-discipline linter, circuit
    linter, threshold validator) reports through this one type so the CLI,
    the test suite and the experiment-harness hook can aggregate, filter
    and print them uniformly. [Error] findings are invariant breaches the
    paper's constructions forbid (they fail `ctmed lint`); [Warning]
    findings are legal-but-suspicious patterns (in-protocol misbehaviour a
    Byzantine player is allowed, dead circuit structure, and so on). *)

type severity = Error | Warning

type t = {
  analyzer : string;  (** "model-check" | "effects" | "circuit" | "thresholds" *)
  severity : severity;
  subject : string;  (** what the finding is about, e.g. "player 3", "gate g7" *)
  detail : string;
}

val v : ?severity:severity -> analyzer:string -> subject:string -> string -> t
(** [severity] defaults to [Error]. *)

val warning : analyzer:string -> subject:string -> string -> t

val is_error : t -> bool
val errors : t list -> t list

val count : t list -> int * int
(** (errors, warnings). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
