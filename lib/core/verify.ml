module Dist = Games.Dist
module Spec = Mediator.Spec

type run = {
  outcome : int Sim.Types.outcome;
  actions : int array;
  deadlocked : bool;
}

let actions_of (p : Compile.plan) ~types ~procs (o : int Sim.Types.outcome) =
  let spec = p.Compile.spec in
  let n = spec.Spec.game.Games.Game.n in
  let willed = Sim.Runner.moves_with_wills procs o in
  Array.init n (fun i ->
      match o.Sim.Types.moves.(i) with
      | Some a -> a
      | None -> (
          match p.Compile.approach with
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

let default_check_runs =
  match Sys.getenv_opt "CTMED_LINT_RUNS" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let lint_outcome o =
  let fs = Analysis.check_run o in
  match Analysis.Finding.errors fs with
  | [] -> ()
  | f :: _ ->
      failwith
        (Format.asprintf "Verify: effect-discipline violation in run: %a" Analysis.Finding.pp f)

(* The per-message-type fuzz hook Corrupt faults go through: mangle the
   payloads whose robustness the paper actually claims — output shares
   (the Berlekamp–Welch online error-correction path) and AVSS cross
   points (the pairwise echo-validation path). Vote and Row payloads are
   left alone: corrupting agreement votes or dealer rows attacks parts
   of the protocol the fault budget does not model. *)
let fuzz_msg ~src:_ ~dst:_ ~seq:_ (m : Mpc.Engine.msg) =
  match m with
  | Mpc.Engine.Output_msg (stage, share) ->
      Mpc.Engine.Output_msg (stage, Field.Gf.add share Field.Gf.one)
  | Mpc.Engine.Share_msg (sid, Mpc.Avss.Point p) ->
      Mpc.Engine.Share_msg (sid, Mpc.Avss.Point (Field.Gf.add p Field.Gf.one))
  | Mpc.Engine.Share_msg _ | Mpc.Engine.Vote_msg _ -> m

let run_with ?(check_runs = default_check_runs) ?faults ?fuel ?wall_limit p
    ~types ~scheduler ~seed ~replace =
  let honest = Compile.processes p ~types ~coin_seed:(seed * 7919) ~seed in
  let procs =
    Array.mapi (fun pid h -> match replace pid with Some adv -> adv | None -> h) honest
  in
  (* the plan is derived from the trial seed, so a faulted trial remains
     a pure function of its seed (determinism contract, DESIGN.md §9) *)
  let fplan = Option.map (Faults.Plan.make ~seed) faults in
  let o =
    Sim.Runner.run
      (Sim.Runner.config ~record:check_runs ~scheduler ?faults:fplan ~fuzz:fuzz_msg ?fuel
         ?wall_limit procs)
  in
  if check_runs then lint_outcome o;
  {
    outcome = o;
    actions = actions_of p ~types ~procs o;
    deadlocked =
      (match o.Sim.Types.termination with
      | Sim.Types.Deadlocked | Sim.Types.Cutoff | Sim.Types.Timed_out -> true
      | Sim.Types.All_halted | Sim.Types.Quiescent -> false);
  }

let run_once ?check_runs ?faults ?fuel ?wall_limit p ~types ~scheduler ~seed =
  run_with ?check_runs ?faults ?fuel ?wall_limit p ~types ~scheduler ~seed
    ~replace:(fun _ -> None)

let metrics r = r.outcome.Sim.Types.metrics

type trial_error_policy = Fail | Skip | Degrade

type trial_failure = { seed : int; attempts : int; error : string }

type trial_stats = { mutable retried : int; mutable failures : trial_failure list }

let trial_stats () = { retried = 0; failures = [] }
let degraded st = List.length st.failures

let fatal = function
  | Stack_overflow | Out_of_memory | Assert_failure _ -> true
  | _ -> false

(* A retry gets a fresh stream derived from the failing trial and the
   attempt index — deterministic, and disjoint from every first-attempt
   seed's own [0xFEED; seed; s] streams. *)
let retry_seed ~seed ~attempt = Random.State.bits (Random.State.make [| 0xFEED; seed; attempt |])

(* Shard the trial seeds [seed, seed + samples) over the pool (in the
   calling domain when [pool] is absent). Each trial must be a pure
   function of its seed; results come back in seed order, so every fold
   below is deterministic at any domain count.

   Hardened path (any of [retries] > 0, a non-Fail policy, or [stats]):
   each trial is guarded in the worker — a non-fatal exn re-runs it with
   a derived seed up to [retries] times; what the guards record is folded
   by the submitting domain in seed order, so retry counts and the
   failure list keep the any--j byte-identity. Under [Fail] the raised
   [Trial_failed] names the LOWEST failing trial seed (not whichever
   domain lost the race). Fatal exns are never retried. *)
let map_trials ?pool ?(retries = 0) ?(on_trial_error = Fail) ?stats ~samples ~seed f =
  let plain f =
    match pool with
    | None -> Array.init samples (fun s -> f (seed + s))
    | Some pool -> Parallel.Pool.map_seeded ~pool ~seeds:(seed, seed + samples) f
  in
  match (retries, on_trial_error, stats) with
  | 0, Fail, None -> plain f
  | _ ->
      let guarded s =
        let rec attempt k s_k =
          match f s_k with
          | v -> Ok (v, k)
          | exception e when not (fatal e) ->
              if k < retries then attempt (k + 1) (retry_seed ~seed:s ~attempt:(k + 1))
              else Error (s, k + 1, e, Printexc.get_raw_backtrace ())
        in
        attempt 0 s
      in
      let outcomes = plain guarded in
      let note_retried k =
        match stats with Some st -> st.retried <- st.retried + k | None -> ()
      in
      let kept = ref [] in
      Array.iter
        (fun r ->
          match r with
          | Ok (v, k) ->
              note_retried k;
              kept := v :: !kept
          | Error (s, attempts, e, bt) -> (
              note_retried (attempts - 1);
              match on_trial_error with
              | Fail ->
                  Printexc.raise_with_backtrace
                    (Parallel.Pool.Trial_failed
                       {
                         seed = s;
                         exn = e;
                         backtrace = Printexc.raw_backtrace_to_string bt;
                       })
                    bt
              | Skip -> ()
              | Degrade -> (
                  match stats with
                  | Some st ->
                      st.failures <-
                        { seed = s; attempts; error = Printexc.to_string e } :: st.failures
                  | None -> ())))
        outcomes;
      (match stats with Some st -> st.failures <- List.rev st.failures | None -> ());
      Array.of_list (List.rev !kept)

(* Trials return their metrics alongside the measured value; only the
   submitting domain folds them into [agg], in seed order — the
   determinism contract's extension to observability (DESIGN.md §10). *)
let fold_metrics agg results =
  match agg with
  | None -> ()
  | Some agg -> Array.iter (fun (_, m) -> Obs.Agg.add agg m) results

let empirical_action_dist ?check_runs ?pool ?metrics:agg ?faults p ~types
    ~samples ~scheduler_of ~seed =
  let trials =
    map_trials ?pool ~samples ~seed (fun s ->
        let r =
          run_once ?check_runs ?faults p ~types ~scheduler:(scheduler_of s)
            ~seed:s
        in
        (r.actions, metrics r))
  in
  fold_metrics agg trials;
  let emp = Dist.Empirical.create () in
  Array.iter (fun (actions, _) -> Dist.Empirical.add emp actions) trials;
  Dist.Empirical.to_dist emp

let implementation_distance ?check_runs ?pool ?metrics ?faults p ~types
    ~samples ~scheduler_of ~seed =
  match Mediator.Measure.exact_action_dist p.Compile.spec ~types with
  | None -> invalid_arg "Verify.implementation_distance: randomness not enumerable"
  | Some exact ->
      let empirical =
        empirical_action_dist ?check_runs ?pool ?metrics ?faults p ~types
          ~samples ~scheduler_of ~seed
      in
      Dist.l1 exact empirical

let draw_types (game : Games.Game.t) rng =
  let u = Random.State.float rng 1.0 in
  let rec pick acc = function
    | [] -> fst (List.hd game.Games.Game.type_dist)
    | (types, prob) :: rest -> if u < acc +. prob then types else pick (acc +. prob) rest
  in
  pick 0.0 game.Games.Game.type_dist

let expected_utilities ?check_runs ?pool ?metrics:agg ?faults p ~samples
    ~scheduler_of ~seed ?(replace = fun _ -> None) () =
  let game = p.Compile.spec.Spec.game in
  let n = game.Games.Game.n in
  let utils =
    map_trials ?pool ~samples ~seed (fun s ->
        (* the type draw gets its own per-trial stream: trial s is a pure
           function of (seed, s), not of how many trials ran before it *)
        let rng = Random.State.make [| 0xFEED; seed; s |] in
        let types = draw_types game rng in
        let r =
          run_with ?check_runs ?faults p ~types ~scheduler:(scheduler_of s)
            ~seed:s ~replace
        in
        (game.Games.Game.utility ~types ~actions:r.actions, metrics r))
  in
  fold_metrics agg utils;
  let totals = Array.make n 0.0 in
  Array.iter
    (fun (u, _) ->
      for i = 0 to n - 1 do
        totals.(i) <- totals.(i) +. u.(i)
      done)
    utils;
  Array.map (fun x -> x /. float_of_int samples) totals

let coterminated (o : int Sim.Types.outcome) ~honest =
  let moved i = Option.is_some o.Sim.Types.moves.(i) in
  List.for_all moved honest || List.for_all (fun i -> not (moved i)) honest

let messages_used r = r.outcome.Sim.Types.messages_sent
