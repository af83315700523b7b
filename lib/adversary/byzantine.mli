(** Byzantine process transformers: the "players with unknown utilities"
    of the paper's t budget. Each either replaces a process outright or
    wraps an honest process and distorts its behaviour. *)

val silent : unit -> ('m, 'a) Sim.Types.process
(** Crash from the start: never sends, never moves. *)

val crash_after : int -> ('m, 'a) Sim.Types.process -> ('m, 'a) Sim.Types.process
(** Behave honestly for [k] activations (start counts as one), then die. *)

val withhold_from : victim:int -> ('m, 'a) Sim.Types.process -> ('m, 'a) Sim.Types.process
(** Honest, except that nothing is ever sent to [victim]. *)

val corrupt_output_shares :
  offset:Field.Gf.t ->
  (Mpc.Engine.msg, 'a) Sim.Types.process ->
  (Mpc.Engine.msg, 'a) Sim.Types.process
(** Honest through the whole computation, but every output share handed to
    another player is shifted by [offset] — the reconstruction attack that
    online error correction must absorb (and that succeeds below the
    paper's thresholds, experiment E3). *)

val corrupt_avss_points :
  offset:Field.Gf.t ->
  (Mpc.Engine.msg, 'a) Sim.Types.process ->
  (Mpc.Engine.msg, 'a) Sim.Types.process
(** Honest, but every AVSS cross-check point it sends is wrong: exercises
    the pairwise verification path. *)

val spam :
  forge:(Random.State.t -> int -> (int * 'm) list) ->
  Random.State.t ->
  ('m, 'a) Sim.Types.process
(** On every activation [i], sends [forge rng i]: junk-message flooding. *)
