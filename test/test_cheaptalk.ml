(* Tests for the cheap-talk compiler: theorem thresholds, end-to-end
   implementation of mediated equilibria, wills/punishment on stall,
   cotermination. *)

module Compile = Cheaptalk.Compile
module Verify = Cheaptalk.Verify
module Spec = Mediator.Spec
module Dist = Games.Dist

let silent =
  Sim.Types.
    { start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = (fun () -> None) }

(* --- thresholds --- *)

let test_required_n () =
  Alcotest.(check int) "T41 k=1 t=1" 9 (Compile.required_n Compile.T41 ~k:1 ~t:1);
  Alcotest.(check int) "T42 k=1 t=1" 7 (Compile.required_n Compile.T42 ~k:1 ~t:1);
  Alcotest.(check int) "T44 k=1 t=1" 8 (Compile.required_n Compile.T44 ~k:1 ~t:1);
  Alcotest.(check int) "T45 k=1 t=1" 6 (Compile.required_n Compile.T45 ~k:1 ~t:1)

let test_plan_validation () =
  let spec5 = Spec.coordination ~n:5 in
  (match Compile.plan ~spec:spec5 ~theorem:Compile.T41 ~k:0 ~t:1 () with
  | Ok p ->
      Alcotest.(check int) "degree" 1 p.Compile.degree;
      Alcotest.(check int) "faults" 1 p.Compile.faults
  | Error e -> Alcotest.failf "5 > 4 should plan: %s" e);
  (match Compile.plan ~spec:spec5 ~theorem:Compile.T41 ~k:1 ~t:1 () with
  | Ok _ -> Alcotest.fail "n=5 < 9 must be rejected"
  | Error _ -> ());
  (* 4.4 without punishment must be rejected *)
  (match Compile.plan ~spec:spec5 ~theorem:Compile.T44 ~k:1 ~t:0 () with
  | Ok _ -> Alcotest.fail "no punishment: must reject"
  | Error _ -> ());
  (* 4.4 with punishment plans, and uses t (not k+t) as fault budget *)
  let pit = Spec.pitfall_minimal ~n:5 ~k:1 in
  match Compile.plan ~spec:pit ~theorem:Compile.T44 ~k:1 ~t:0 () with
  | Ok p ->
      Alcotest.(check int) "degree k+t" 1 p.Compile.degree;
      Alcotest.(check int) "faults t" 0 p.Compile.faults;
      Alcotest.(check bool) "AH approach" true (p.Compile.approach = Compile.Ah_wills)
  | Error e -> Alcotest.failf "pitfall T44 should plan: %s" e

(* --- Theorem 4.1: exact implementation --- *)

let test_t41_coordination_end_to_end () =
  let spec = Spec.coordination ~n:5 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T41 ~k:0 ~t:1 () in
  let types = Array.make 5 0 in
  List.iter
    (fun seed ->
      let r = Verify.run_once p ~types ~scheduler:(Sim.Scheduler.random_seeded seed) ~seed in
      Alcotest.(check bool) "no deadlock" false r.Verify.deadlocked;
      let a0 = r.Verify.actions.(0) in
      Alcotest.(check bool) "bit" true (a0 = 0 || a0 = 1);
      Array.iter (fun a -> Alcotest.(check int) "all agree" a0 a) r.Verify.actions)
    (List.init 5 (fun i -> i))

let test_t41_implementation_distance () =
  let spec = Spec.coordination ~n:5 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T41 ~k:0 ~t:1 () in
  let d =
    Verify.implementation_distance p ~types:(Array.make 5 0) ~samples:120
      ~scheduler_of:Sim.Scheduler.random_seeded ~seed:42
  in
  (* exact dist is (1/2, 1/2); 120 samples should land well within 0.25 *)
  Alcotest.(check bool) (Printf.sprintf "dist %.3f small" d) true (d < 0.25)

let test_t41_chicken_correlated () =
  let spec = Spec.chicken_with_bystanders ~n:5 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T41 ~k:1 ~t:0 () in
  let types = Array.make 5 0 in
  let emp =
    Verify.empirical_action_dist p ~types ~samples:120
      ~scheduler_of:Sim.Scheduler.random_seeded ~seed:7
  in
  let proj = Dist.map_profiles (fun a -> [| a.(0); a.(1) |]) emp in
  let expected = Games.Catalog.chicken_correlated () in
  let d = Dist.l1 proj expected in
  Alcotest.(check bool) (Printf.sprintf "correlated dist %.3f" d) true (d < 0.3)

let test_t41_majority_bayesian () =
  let spec = Spec.majority_coordination ~n:5 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T41 ~k:0 ~t:1 () in
  let types = [| 1; 0; 1; 1; 0 |] in
  let r = Verify.run_once p ~types ~scheduler:(Sim.Scheduler.fifo ()) ~seed:1 in
  Array.iter (fun a -> Alcotest.(check int) "majority" 1 a) r.Verify.actions

let test_t41_message_bound () =
  let spec = Spec.coordination ~n:5 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T41 ~k:0 ~t:1 () in
  let r =
    Verify.run_once p ~types:(Array.make 5 0) ~scheduler:(Sim.Scheduler.random_seeded 3) ~seed:3
  in
  Alcotest.(check bool)
    (Printf.sprintf "messages %d within bound %d" (Verify.messages_used r)
       (Compile.message_bound p))
    true
    (Verify.messages_used r <= Compile.message_bound p)

(* --- Theorem 4.2 --- *)

let test_t42_below_t41_threshold () =
  (* n = 4 with t = 1: 4.1 needs n >= 5, 4.2 only n >= 4. *)
  let spec = Spec.coordination ~n:4 in
  (match Compile.plan ~spec ~theorem:Compile.T41 ~k:0 ~t:1 () with
  | Ok _ -> Alcotest.fail "T41 must reject n=4 t=1"
  | Error _ -> ());
  let p = Compile.plan_exn ~spec ~theorem:Compile.T42 ~k:0 ~t:1 () in
  let d =
    Verify.implementation_distance p ~types:(Array.make 4 0) ~samples:120
      ~scheduler_of:Sim.Scheduler.random_seeded ~seed:17
  in
  Alcotest.(check bool) (Printf.sprintf "eps-implementation, dist %.3f" d) true (d < 0.3)

(* --- Theorem 4.4: punishment in wills --- *)

let test_t44_honest_run () =
  let spec = Spec.pitfall_minimal ~n:5 ~k:1 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T44 ~k:1 ~t:0 () in
  let types = Array.make 5 0 in
  let r = Verify.run_once p ~types ~scheduler:(Sim.Scheduler.random_seeded 2) ~seed:2 in
  Alcotest.(check bool) "no deadlock" false r.Verify.deadlocked;
  let a0 = r.Verify.actions.(0) in
  Alcotest.(check bool) "recommendation is a bit" true (a0 = 0 || a0 = 1);
  Array.iter (fun a -> Alcotest.(check int) "coordinated" a0 a) r.Verify.actions

let test_t44_stall_triggers_punishment () =
  (* A rational player that silently stops participating stalls the
     protocol (faults budget is 0); every honest will then carries the
     punishment, so the deviation is unprofitable: everyone plays bot. *)
  let spec = Spec.pitfall_minimal ~n:5 ~k:1 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T44 ~k:1 ~t:0 () in
  let types = Array.make 5 0 in
  let r =
    Verify.run_with p ~types ~scheduler:(Sim.Scheduler.fifo ()) ~seed:4
      ~replace:(fun pid -> if pid = 2 then Some silent else None)
  in
  (* honest players never moved; wills fire *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "player %d punished action" i)
        Games.Catalog.bot_action r.Verify.actions.(i))
    [ 0; 1; 3; 4 ];
  let u = spec.Spec.game.Games.Game.utility ~types ~actions:r.Verify.actions in
  Alcotest.(check (float 1e-9)) "deviator payoff 1.1 < 1.5" 1.1 u.(2)

let test_t44_cotermination () =
  let spec = Spec.pitfall_minimal ~n:5 ~k:1 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T44 ~k:1 ~t:0 () in
  let types = Array.make 5 0 in
  List.iter
    (fun seed ->
      let r = Verify.run_once p ~types ~scheduler:(Sim.Scheduler.random_seeded seed) ~seed in
      Alcotest.(check bool) "coterminated" true
        (Verify.coterminated r.Verify.outcome ~honest:[ 0; 1; 2; 3; 4 ]))
    (List.init 8 (fun i -> i))

(* --- Theorem 4.5 --- *)

let test_t45_small_n () =
  (* k=1, t=0: T45 needs only n >= 3; the pitfall game needs n > 3k, so
     n = 4 — below T44's n >= 4? T44 needs 3k+4t+1 = 4 too; use t=1,k=1:
     T45 needs n >= 6, T44 needs n >= 8. Run at n = 7 with both roles. *)
  let spec = Spec.pitfall_minimal ~n:7 ~k:1 in
  (match Compile.plan ~spec ~theorem:Compile.T44 ~k:1 ~t:1 () with
  | Ok _ -> Alcotest.fail "T44 must reject n=7 k=1 t=1"
  | Error _ -> ());
  let p = Compile.plan_exn ~spec ~theorem:Compile.T45 ~k:1 ~t:1 () in
  let types = Array.make 7 0 in
  let r = Verify.run_once p ~types ~scheduler:(Sim.Scheduler.random_seeded 1) ~seed:1 in
  Alcotest.(check bool) "no deadlock" false r.Verify.deadlocked;
  let a0 = r.Verify.actions.(0) in
  Array.iter (fun a -> Alcotest.(check int) "coordinated" a0 a) r.Verify.actions

(* --- AH wills vs default moves agree when nothing deadlocks --- *)

let test_approaches_agree_without_deadlock () =
  let spec = Spec.coordination ~n:5 in
  let mk approach = Compile.plan_exn ~approach ~spec ~theorem:Compile.T41 ~k:0 ~t:1 () in
  let p_default = mk Compile.Default_move in
  let p_wills = mk Compile.Ah_wills in
  let types = Array.make 5 0 in
  List.iter
    (fun seed ->
      let a = Verify.run_once p_default ~types ~scheduler:(Sim.Scheduler.random_seeded seed) ~seed in
      let b = Verify.run_once p_wills ~types ~scheduler:(Sim.Scheduler.random_seeded seed) ~seed in
      Alcotest.(check bool) "no deadlock" false (a.Verify.deadlocked || b.Verify.deadlocked);
      Alcotest.(check bool) "same actions" true (a.Verify.actions = b.Verify.actions))
    [ 1; 2; 3 ]

(* --- privacy sanity: recommendations stay hidden --- *)

let test_recommendation_privacy_structure () =
  (* With degree = k+t = 1, any single player's view of another's output
     shares is one share: run the chicken protocol and confirm driver 1's
     action is NOT determined by driver 0's recommendation alone
     (empirically: both (C -> D) and (C -> C) pairs occur). *)
  let spec = Spec.chicken_with_bystanders ~n:5 in
  let p = Compile.plan_exn ~spec ~theorem:Compile.T41 ~k:1 ~t:0 () in
  let types = Array.make 5 0 in
  let seen = Hashtbl.create 4 in
  for seed = 0 to 59 do
    let r = Verify.run_once p ~types ~scheduler:(Sim.Scheduler.random_seeded seed) ~seed in
    Hashtbl.replace seen (r.Verify.actions.(0), r.Verify.actions.(1)) ()
  done;
  Alcotest.(check bool) "both (1,0) and (1,1) occur" true
    (Hashtbl.mem seen (1, 0) && Hashtbl.mem seen (1, 1));
  Alcotest.(check bool) "(0,0) never occurs" false (Hashtbl.mem seen (0, 0))

(* --- golden outcome digests --- *)

(* Compiled sessions built as the served-session benchmark builds them:
   Thm 4.1 plans, all-zero types, coin seed = seed * 7919, and E3's
   attacker (every AVSS cross point +5, every output share +1). *)
let coord5 =
  lazy (Compile.plan_exn ~spec:(Spec.coordination ~n:5) ~theorem:Compile.T41 ~k:0 ~t:1 ())

let mm9 =
  lazy (Compile.plan_exn ~spec:(Spec.majority_match ~n:9) ~theorem:Compile.T41 ~k:1 ~t:1 ())

(* E1's chicken row (14 multiplication gates) and a two-stage reveal:
   the sessions with the most concurrent gates and the staged outputs. *)
let chicken5 =
  lazy
    (Compile.plan_exn ~spec:(Spec.chicken_with_bystanders ~n:5) ~theorem:Compile.T41 ~k:1 ~t:0 ())

let pitfall5 =
  lazy (Compile.plan_exn ~spec:(Spec.pitfall_naive ~n:5 ~k:1) ~theorem:Compile.T44 ~k:1 ~t:0 ())

let e3_attack p =
  Adversary.Byzantine.corrupt_output_shares ~offset:Field.Gf.one
    (Adversary.Byzantine.corrupt_avss_points ~offset:(Field.Gf.of_int 5) p)

let session_config ?faults ?attacker ?record plan ~scheduler ~seed =
  let n = plan.Compile.spec.Spec.game.Games.Game.n in
  let procs = Compile.processes plan ~types:(Array.make n 0) ~coin_seed:(seed * 7919) ~seed in
  Option.iter (fun a -> procs.(a) <- e3_attack procs.(a)) attacker;
  Sim.Runner.config ?faults ?record ~scheduler procs

let outcome_repr o = Transport.Differential.outcome_repr ~show:string_of_int o
let repr_digest o = Digest.to_hex (Digest.string (outcome_repr o))

(* Whole outcomes (termination, moves, counts, metrics and the full
   trace) pinned to the digests these runs had before settle-on-change,
   history-only-for-readers, dense ABA state and the unrecorded default,
   none of which may change them. *)
let test_golden_digests () =
  let run ?faults ?attacker plan scheduler seed =
    Sim.Runner.run
      (session_config ~record:true ?faults ?attacker (Lazy.force plan) ~scheduler ~seed)
  in
  let check name expected got = Alcotest.(check string) name expected got in
  List.iter
    (fun (sname, mk, digests) ->
      List.iteri
        (fun i expected ->
          let seed = i + 1 in
          check (Printf.sprintf "coord5 %s seed %d" sname seed) expected
            (repr_digest (run coord5 (mk seed) seed)))
        digests)
    [
      ( "random",
        Sim.Scheduler.random_seeded,
        [
          "4397d8ace8cc9114f217875ac5b25983";
          "17b4d196ee835b44712f29553a6cea8b";
          "a26de5bfeaefcc00878f6c1a59eac59e";
          "a85c511b35852b4e2b4439a6d9956536";
        ] );
      ( "fifo",
        (fun _ -> Sim.Scheduler.fifo ()),
        [
          "9354744071d6fcf62e73b2960ce78d1a";
          "90dbd959d8e11af7a6204cf19f5eeabb";
          "90dbd959d8e11af7a6204cf19f5eeabb";
          "9354744071d6fcf62e73b2960ce78d1a";
        ] );
      ( "adaptive-laggard",
        (fun seed -> Sim.Scheduler.adaptive_laggard (Random.State.make [| seed |])),
        [
          "4d96facfbf7309101942708b6e377d8b";
          "3f97059235529a2d258ede66320d6265";
          "ed6184db53f44139adde4cf806d63e67";
          "ee62fcd2763dca29d4a19a57c1f270b1";
        ] );
    ];
  let faults = Faults.Plan.make ~seed:3 (Faults.make ~dup:0.05 ~delay:0.05 ()) in
  let o = run ~faults coord5 (Sim.Scheduler.random_seeded 1) 1 in
  Alcotest.(check bool) "the plan duplicated and delayed messages" true
    (o.Sim.Types.metrics.Obs.Metrics.injected_dup > 0
    && o.Sim.Types.metrics.Obs.Metrics.injected_delay > 0);
  check "coord5 random seed 1, delay+dup faults" "0beb522163fe3b1319dc743f3dab68da"
    (repr_digest o);
  check "mm9-byz random seed 1, E3 attacker" "febde592062e738df8ea3e8a3a54fd66"
    (repr_digest (run ~attacker:8 mm9 (Sim.Scheduler.random_seeded 1) 1));
  check "chicken5 k=1 t=0 random seed 1" "b53482b0e3a572a50a93fd24c57b4139"
    (repr_digest (run chicken5 (Sim.Scheduler.random_seeded 1) 1));
  let o = run pitfall5 (Sim.Scheduler.random_seeded 1) 1 in
  Alcotest.(check bool) "pitfall-naive5: both stages revealed, every player moved" true
    (Array.for_all Option.is_some o.Sim.Types.moves);
  check "pitfall-naive5 T44 k=1 t=0 random seed 1" "d072f92ef9919e9db7c0334b1dfbca16"
    (repr_digest o)

(* --- scheduler history declarations --- *)

(* A scheduler's [history] flag only says whether its [choose] reads
   [~history]; re-wrapping every library scheduler as a reader (same
   [choose], fresh state from the same seed) must leave every outcome
   byte-identical. *)
let test_history_declarations_unobservable () =
  let schedulers seed =
    let rng = Random.State.make [| seed |] in
    Sim.Scheduler.standard_library rng
    @ [
        Sim.Scheduler.relaxed_stop_after 500;
        Sim.Scheduler.relaxed_random ~stop_prob:0.001 (Random.State.make [| seed; 1 |]);
      ]
  in
  List.iter
    (fun seed ->
      List.iter2
        (fun (built : Sim.Scheduler.t) (fresh : Sim.Scheduler.t) ->
          let reader =
            Sim.Scheduler.custom ~reset:fresh.reset ~history:true ~name:fresh.name
              ~relaxed:fresh.relaxed fresh.choose
          in
          let repr scheduler =
            outcome_repr
              (Sim.Runner.run (session_config ~record:true (Lazy.force coord5) ~scheduler ~seed))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: as built = as a history reader" built.name seed)
            (repr built) (repr reader))
        (schedulers seed) (schedulers seed))
    [ 1; 2 ]

(* The runner passes [[]] to a scheduler that declares it reads no
   history, and the history to one that does. *)
let test_history_false_gets_empty () =
  let saw_history = ref false in
  let scheduler history =
    saw_history := false;
    Sim.Scheduler.custom ~history ~name:"oldest" ~relaxed:false (fun ~step:_ ~history ~pending ->
        if history <> [] then saw_history := true;
        Sim.Types.Deliver (Sim.Pending_set.oldest pending).Sim.Types.id)
  in
  let run history =
    ignore
      (Sim.Runner.run
         (session_config (Lazy.force coord5) ~scheduler:(scheduler history) ~seed:1));
    !saw_history
  in
  Alcotest.(check bool) "~history:false receives []" false (run false);
  Alcotest.(check bool) "~history:true receives the history" true (run true)

(* [record] governs only the trace: adaptive_laggard reads its history
   with the trace off too, so its run is the recorded run's. *)
let test_laggard_history_without_trace () =
  List.iter
    (fun seed ->
      let run record =
        Sim.Runner.run
          (session_config ~record (Lazy.force coord5)
             ~scheduler:(Sim.Scheduler.adaptive_laggard (Random.State.make [| seed |]))
             ~seed)
      in
      let on = run true and off = run false in
      Alcotest.(check (array (option int)))
        (Printf.sprintf "seed %d: same moves" seed)
        on.Sim.Types.moves off.Sim.Types.moves;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: same deterministic metrics" seed)
        (Obs.Metrics.det_repr on.Sim.Types.metrics)
        (Obs.Metrics.det_repr off.Sim.Types.metrics);
      Alcotest.(check bool) (Printf.sprintf "seed %d: no trace when off" seed) true
        (off.Sim.Types.trace = []))
    [ 1; 2; 3 ]

(* --- allocation budget --- *)

(* A coord5 session as [ctmed serve] builds it (the default config: no
   trace), and an mm9-byz session with E3's attacker, each run through a
   warm slot. From the second run on a session's minor word count
   repeats exactly, so the budget has no noise: a recording default, an
   event built per delivery for nobody or an outbox copied per reaction
   breaks it. *)
let test_alloc_budget () =
  List.iter
    (fun (name, plan, attacker) ->
      let slot = Sim.Runner.Slot.create () in
      let session () =
        let cfg =
          session_config ?attacker (Lazy.force plan) ~scheduler:(Sim.Scheduler.random_seeded 1)
            ~seed:1
        in
        let before = Gc.minor_words () in
        let o = Sim.Runner.run ~slot cfg in
        (o, Gc.minor_words () -. before)
      in
      ignore (session ());
      let o, words = session () in
      Alcotest.(check bool) (name ^ ": trace off by default") true (o.Sim.Types.trace = []);
      let per_delivery = words /. float_of_int o.Sim.Types.messages_delivered in
      if per_delivery > 80.0 then
        Alcotest.failf "%s: %.0f minor words for %d delivered messages: %.1f per delivery > 80"
          name words o.Sim.Types.messages_delivered per_delivery)
    [ ("coord5", coord5, None); ("mm9-byz", mm9, Some 8) ]

let () =
  Alcotest.run "cheaptalk"
    [
      ( "plans",
        [
          Alcotest.test_case "required n" `Quick test_required_n;
          Alcotest.test_case "validation" `Quick test_plan_validation;
        ] );
      ( "t41",
        [
          Alcotest.test_case "coordination end-to-end" `Quick test_t41_coordination_end_to_end;
          Alcotest.test_case "implementation distance" `Quick test_t41_implementation_distance;
          Alcotest.test_case "chicken correlated" `Quick test_t41_chicken_correlated;
          Alcotest.test_case "bayesian majority" `Quick test_t41_majority_bayesian;
          Alcotest.test_case "message bound" `Quick test_t41_message_bound;
        ] );
      ("t42", [ Alcotest.test_case "below 4.1 threshold" `Quick test_t42_below_t41_threshold ]);
      ( "t44",
        [
          Alcotest.test_case "honest run" `Quick test_t44_honest_run;
          Alcotest.test_case "stall punished" `Quick test_t44_stall_triggers_punishment;
          Alcotest.test_case "cotermination" `Quick test_t44_cotermination;
        ] );
      ("t45", [ Alcotest.test_case "small n" `Quick test_t45_small_n ]);
      ( "approaches",
        [ Alcotest.test_case "agree without deadlock" `Quick test_approaches_agree_without_deadlock ] );
      ("privacy", [ Alcotest.test_case "recommendations hidden" `Quick test_recommendation_privacy_structure ]);
      ("golden", [ Alcotest.test_case "outcome digests" `Quick test_golden_digests ]);
      ( "history",
        [
          Alcotest.test_case "declarations unobservable" `Quick
            test_history_declarations_unobservable;
          Alcotest.test_case "history:false receives []" `Quick test_history_false_gets_empty;
          Alcotest.test_case "laggard reads history without the trace" `Quick
            test_laggard_history_without_trace;
        ] );
      ("alloc", [ Alcotest.test_case "words per delivered message" `Quick test_alloc_budget ]);
    ]
