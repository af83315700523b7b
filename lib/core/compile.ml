module Engine = Mpc.Engine
module Spec = Mediator.Spec
open Sim.Types

module Thresholds = Analysis.Thresholds

type theorem = Thresholds.theorem = T41 | T42 | T44 | T45

let theorem_name = Thresholds.name
let pp_theorem = Thresholds.pp

type approach = Default_move | Ah_wills

let required_n = Thresholds.required_n

type plan = {
  spec : Spec.t;
  theorem : theorem;
  k : int;
  t : int;
  approach : approach;
  degree : int;
  faults : int;
}

let plan ?approach ~spec ~theorem ~k ~t () =
  let n = spec.Spec.game.Games.Game.n in
  let instance =
    {
      Thresholds.theorem;
      n;
      k;
      t;
      has_punishment = Option.is_some spec.Spec.punishment;
      multiplies = Circuit.mul_count spec.Spec.circuit > 0;
    }
  in
  match Thresholds.validate instance with
  | Error e -> Error e
  | Ok () ->
      let needs_punishment = Thresholds.needs_punishment theorem in
      let approach =
        match approach with
        | Some a -> a
        | None -> if needs_punishment then Ah_wills else Default_move
      in
      if needs_punishment && approach = Default_move then
        Error (theorem_name theorem ^ " uses the AH approach (punishment in the wills)")
      else
        Ok
          {
            spec;
            theorem;
            k;
            t;
            approach;
            degree = Thresholds.degree ~k ~t;
            faults = Thresholds.faults theorem ~k ~t;
          }

let plan_exn ?approach ~spec ~theorem ~k ~t () =
  match plan ?approach ~spec ~theorem ~k ~t () with
  | Ok p -> p
  | Error e -> invalid_arg ("Compile.plan: " ^ e)

(* ------------------------------------------------------------------ *)
(* Per-domain plan memoisation (the Shamir Lagrange-cache pattern).

   A standing service — and the threshold-atlas sweep — compiles the
   same (spec, theorem, k, t) over and over; the plan is a pure function
   of those parameters, so each domain caches it once and every session
   in the domain shares the SAME immutable plan record (physical
   sharing is safe: [plan] is a private immutable record). Specs carry
   closures, so the key compares the spec by physical identity and the
   scalars by value; a structurally-equal-but-distinct spec is simply a
   cache miss, never a wrong hit. Domain.DLS keeps the table
   domain-local — no cross-domain mutation, byte-identical results with
   or without the cache at any -j (the test_parallel property). *)

let theorem_index = function T41 -> 0 | T42 -> 1 | T44 -> 2 | T45 -> 3
let approach_index = function None -> 0 | Some Default_move -> 1 | Some Ah_wills -> 2

type memo_entry = {
  me_spec : Spec.t;
  me_theorem : int;
  me_k : int;
  me_t : int;
  me_approach : int;
  me_result : (plan, string) result;
}

let memo_dls = Domain.DLS.new_key (fun () -> ref ([] : memo_entry list))

let plan_memo ?approach ~spec ~theorem ~k ~t () =
  let cache = Domain.DLS.get memo_dls in
  let th = theorem_index theorem and ap = approach_index approach in
  let hit =
    List.find_opt
      (fun e ->
        e.me_spec == spec && e.me_theorem = th && e.me_k = k && e.me_t = t
        && e.me_approach = ap)
      !cache
  in
  match hit with
  | Some e -> e.me_result
  | None ->
      let r = plan ?approach ~spec ~theorem ~k ~t () in
      cache :=
        { me_spec = spec; me_theorem = th; me_k = k; me_t = t; me_approach = ap;
          me_result = r }
        :: !cache;
      r

let plan_memo_exn ?approach ~spec ~theorem ~k ~t () =
  match plan_memo ?approach ~spec ~theorem ~k ~t () with
  | Ok p -> p
  | Error e -> invalid_arg ("Compile.plan: " ^ e)

let clear_caches () = Domain.DLS.get memo_dls := []
let cache_size () = List.length !(Domain.DLS.get memo_dls)

let player_rng ~seed ~me = Random.State.make [| 0xC0DE; seed; me |]

let[@tail_mod_cons] rec sends_onto tail = function
  | [] -> tail
  | (dst, m) :: rest -> Send (dst, m) :: sends_onto tail rest

let player_process p ~me ~type_ ~coin_seed ~seed =
  let spec = p.spec in
  let n = spec.Spec.game.Games.Game.n in
  let engine =
    Engine.create ?stages:spec.Spec.stages ~n ~degree:p.degree ~faults:p.faults ~me
      ~circuit:spec.Spec.circuit
      ~input:(spec.Spec.encode_type ~player:me type_)
      ~rng:(player_rng ~seed ~me) ~coin_seed ()
  in
  let emit (r : Engine.reaction) =
    sends_onto
      (match r.Engine.result with
      | Some v -> [ Move (spec.Spec.decode_action ~player:me v); Halt ]
      | None -> [])
      r.Engine.sends
  in
  let will () =
    (* A will only matters while the player has not moved; once the engine
       produced the recommendation (= the player moved) return None so the
       executor is never handed a stale instruction. *)
    match (p.approach, spec.Spec.punishment) with
    | Ah_wills, Some punish when Option.is_none (Engine.result engine) ->
        Some (punish ~player:me ~type_)
    | Ah_wills, _ | Default_move, _ -> None
  in
  {
    start = (fun () -> emit (Engine.start engine));
    receive = (fun ~src m -> emit (Engine.handle engine ~src m));
    will;
  }

let processes p ~types ~coin_seed ~seed =
  let n = p.spec.Spec.game.Games.Game.n in
  if Array.length types <> n then invalid_arg "Compile.processes: types arity";
  Array.init n (fun me -> player_process p ~me ~type_:types.(me) ~coin_seed ~seed)

(* Explicit-constant instantiation of the paper's message bounds. One AVSS
   is O(n^2) messages, one ABA O(n^2) per round (O(1) expected rounds with
   a common coin); the input phase runs n AVSS + n ABA, each multiplication
   gate n AVSS + n ABA, and output delivery is n^2. *)
let message_bound p =
  let n = p.spec.Spec.game.Games.Game.n in
  let c = Circuit.size p.spec.Spec.circuit in
  let muls = Circuit.mul_count p.spec.Spec.circuit in
  let stages =
    match p.spec.Spec.stages with Some s -> Array.length s | None -> 1
  in
  let avss_cost = 4 * n * n in
  let aba_cost = 12 * n * n in
  let sessions = n * (1 + p.spec.Spec.circuit.Circuit.n_random) + (n * muls) in
  let agreements = n + (n * muls) in
  (sessions * avss_cost) + (agreements * aba_cost) + (stages * n * n) + (16 * n * c)
