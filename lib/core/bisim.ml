module Dist = Games.Dist
module Spec = Mediator.Spec
module Protocol = Mediator.Protocol
open Sim.Types

type ct_adversary = {
  ct_name : string;
  ct_replace : seed:int -> int -> (Mpc.Engine.msg, int) Sim.Types.process option;
  ct_scheduler : int -> Sim.Scheduler.t;
}

type med_adversary = {
  med_name : string;
  misreport : (int * int) list;
  override : (int * int) list;
  mute : int list;
  relaxed_stop : int option;
}

let honest_ct scheduler =
  { ct_name = "honest"; ct_replace = (fun ~seed:_ _ -> None); ct_scheduler = scheduler }

let honest_med =
  { med_name = "honest"; misreport = []; override = []; mute = []; relaxed_stop = None }

let standard_med_adversaries ~n ~coalition =
  let misreports =
    List.map
      (fun i -> { honest_med with med_name = Printf.sprintf "misreport[%d]" i; misreport = [ (i, 1) ] })
      coalition
  in
  let overrides =
    List.concat_map
      (fun i ->
        List.map
          (fun a ->
            {
              honest_med with
              med_name = Printf.sprintf "override[%d->%d]" i a;
              override = [ (i, a) ];
            })
          [ 0; 1 ])
      coalition
  in
  let mutes =
    List.map
      (fun i -> { honest_med with med_name = Printf.sprintf "mute[%d]" i; mute = [ i ] })
      coalition
  in
  let stops =
    List.map
      (fun s ->
        {
          honest_med with
          med_name = Printf.sprintf "relaxed-stop[%d]" s;
          relaxed_stop = Some s;
        })
      [ n + 1; 2 * n; 4 * n ]
  in
  (honest_med :: misreports) @ overrides @ mutes @ stops

let ct_outcome_dist ?check_runs ?pool ?metrics plan ~types adv ~samples ~seed =
  let trials =
    Verify.map_trials ?pool ~samples ~seed (fun seed ->
        let r =
          Verify.run_with ?check_runs plan ~types ~scheduler:(adv.ct_scheduler seed) ~seed
            ~replace:(adv.ct_replace ~seed)
        in
        (r.Verify.actions, Verify.metrics r))
  in
  Verify.fold_metrics metrics trials;
  let emp = Dist.Empirical.create () in
  Array.iter (fun (actions, _) -> Dist.Empirical.add emp actions) trials;
  Dist.Empirical.to_dist emp

(* One mediator-game history with the structured deviations applied. *)
let med_run plan ~types ~rounds adv ~seed =
  let spec = plan.Compile.spec in
  let n = spec.Spec.game.Games.Game.n in
  let wait_for = n - plan.Compile.k - plan.Compile.t in
  let rng = Random.State.make [| 0xD1CE; seed |] in
  let base = Protocol.game_processes ~spec ~types ~rounds ~wait_for ~rng () in
  let procs =
    Array.mapi
      (fun pid p ->
        if pid >= n then p
        else if List.mem pid adv.mute then
          { start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = p.will }
        else begin
          let type_ =
            match List.assoc_opt pid adv.misreport with
            | Some fake -> fake
            | None -> types.(pid)
          in
          let inner =
            Protocol.honest_player ~spec ~me:pid ~type_ ~mediator_pid:n
              ~will:(p.will ())
          in
          match List.assoc_opt pid adv.override with
          | None -> inner
          | Some a ->
              let rewrite effects =
                List.map
                  (function Move _ -> Move a | (Send _ | Halt) as e -> e)
                  effects
              in
              {
                start = (fun () -> rewrite (inner.start ()));
                receive = (fun ~src m -> rewrite (inner.receive ~src m));
                will = inner.will;
              }
        end)
      base
  in
  let scheduler =
    match adv.relaxed_stop with
    | Some k -> Sim.Scheduler.relaxed_stop_after k
    | None -> Sim.Scheduler.random_seeded seed
  in
  let o = Sim.Runner.run (Sim.Runner.config ~mediator:n ~scheduler procs) in
  let willed = Sim.Runner.moves_with_wills procs o in
  let actions =
    Array.init n (fun i ->
        match o.Sim.Types.moves.(i) with
        | Some a -> a
        | None -> (
            match plan.Compile.approach with
            | Compile.Ah_wills -> (
                match willed.(i) with
                | Some a -> a
                | None -> (
                    match spec.Spec.default_move with
                    | Some d -> d ~player:i ~type_:types.(i)
                    | None -> 0))
            | Compile.Default_move -> (
                match spec.Spec.default_move with
                | Some d -> d ~player:i ~type_:types.(i)
                | None -> 0)))
  in
  (actions, o.Sim.Types.metrics)

let med_outcome_dist ?pool ?metrics plan ~types ~rounds adv ~samples ~seed =
  let trials =
    Verify.map_trials ?pool ~samples ~seed (fun seed ->
        med_run plan ~types ~rounds adv ~seed)
  in
  Verify.fold_metrics metrics trials;
  let emp = Dist.Empirical.create () in
  Array.iter (fun (actions, _) -> Dist.Empirical.add emp actions) trials;
  Dist.Empirical.to_dist emp

type match_result = {
  adversary : string;
  best_match : string;
  distance : float;
}

let closest target candidates =
  List.fold_left
    (fun acc (name, dist_value) ->
      match acc with
      | Some (_, best) when best <= dist_value -> acc
      | _ -> Some (name, dist_value))
    None
    (List.map (fun (name, d) -> (name, Dist.l1 target d)) candidates)

let emulation_radius ?check_runs ?pool ?metrics plan ~types ~rounds ~ct_family ~med_family
    ~samples ~seed =
  let med_dists =
    List.map
      (fun adv ->
        (adv.med_name, med_outcome_dist ?pool ?metrics plan ~types ~rounds adv ~samples ~seed))
      med_family
  in
  List.map
    (fun ct ->
      let d = ct_outcome_dist ?check_runs ?pool ?metrics plan ~types ct ~samples ~seed in
      match closest d med_dists with
      | Some (name, dist) -> { adversary = ct.ct_name; best_match = name; distance = dist }
      | None -> { adversary = ct.ct_name; best_match = "-"; distance = infinity })
    ct_family

let bisimulation_radius ?check_runs ?pool ?metrics plan ~types ~rounds ~ct_family
    ~med_family ~samples ~seed =
  let forward =
    emulation_radius ?check_runs ?pool ?metrics plan ~types ~rounds ~ct_family ~med_family
      ~samples ~seed
  in
  let ct_dists =
    List.map
      (fun ct ->
        (ct.ct_name, ct_outcome_dist ?check_runs ?pool ?metrics plan ~types ct ~samples ~seed))
      ct_family
  in
  let backward =
    List.map
      (fun adv ->
        let d = med_outcome_dist ?pool ?metrics plan ~types ~rounds adv ~samples ~seed in
        match closest d ct_dists with
        | Some (name, dist) ->
            { adversary = adv.med_name; best_match = name; distance = dist }
        | None -> { adversary = adv.med_name; best_match = "-"; distance = infinity })
      med_family
  in
  (forward, backward)
