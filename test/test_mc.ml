(* Tests for the model checker (Analysis.Mc): DPOR cross-validated
   against the naive Sim.Explore backend, against the race detector's
   happens-before relation and against sampled Runner runs; the
   reduction-ratio and parallel-determinism guarantees from the
   acceptance criteria; relaxed stop-cut coverage; the counterexample
   minimizer; and the Experiments.Check fixture catalog behind
   `ctmed check` / `make check`. *)

module Mc = Analysis.Mc
module Fx = Analysis.Fixtures
module Race = Analysis.Race
module Check = Experiments.Check

let class_key (c : int Mc.outcome_class) =
  (c.Mc.cls_stopped, c.Mc.cls_termination, Array.to_list c.Mc.cls_moves,
   Array.to_list c.Mc.cls_willed)

let class_set (v : int Mc.verdict) = List.map class_key v.Mc.classes

let check_same_classes name a b =
  Alcotest.(check int) (name ^ ": same class count") (List.length a.Mc.classes)
    (List.length b.Mc.classes);
  Alcotest.(check bool) (name ^ ": same class set") true (class_set a = class_set b)

let dpor ?pool ?properties ?require_confluence ?relaxed ?max_states make =
  Mc.check ~backend:Mc.Dpor ?pool ?properties ?require_confluence ?max_states
    (Mc.system ?relaxed make)

let naive ?properties ?relaxed ?max_states make =
  Mc.check ~backend:Mc.Naive ?properties ?max_states (Mc.system ?relaxed make)

(* ------------------------------------------------------------------ *)
(* DPOR vs naive on the existing demo fixtures. *)

let test_dpor_vs_naive_fixtures () =
  List.iter
    (fun (name, make) ->
      let d = dpor make and n = naive make in
      check_same_classes name d n;
      Alcotest.(check bool) (name ^ ": dpor exhaustive") true d.Mc.exhaustive;
      Alcotest.(check bool) (name ^ ": naive exhaustive") true n.Mc.exhaustive;
      Alcotest.(check bool)
        (name ^ ": dpor explores no more runs than naive histories")
        true
        (d.Mc.stats.Mc.runs <= n.Mc.stats.Mc.runs))
    [
      ("ping_pong", Fx.ping_pong);
      ("threshold_sum", Fx.threshold_sum);
      ("order_bug", Fx.order_bug);
      ("byzantine_echo", Fx.byzantine_echo);
      ("quorum3z1", Fx.quorum_vote ~n:3 ~zeros:1);
      ("pairs2", Fx.pairs ~m:2);
    ]

let test_confluence_verdicts () =
  let d = dpor Fx.ping_pong in
  Alcotest.(check bool) "ping_pong agrees" true (d.Mc.confluence = Sim.Explore.Agree);
  let d = dpor Fx.order_bug in
  Alcotest.(check bool) "order_bug disagrees" true
    (d.Mc.confluence = Sim.Explore.Disagree);
  let d = dpor ~require_confluence:true Fx.order_bug in
  (match d.Mc.violation with
  | Some ce ->
      Alcotest.(check string) "confluence violation" "confluence" ce.Mc.ce_property;
      (* the divergence needs both shouts delivered: minimized to <= 2 *)
      Alcotest.(check bool) "divergence minimized" true
        (List.length ce.Mc.ce_script <= 2)
  | None -> Alcotest.fail "order_bug with require_confluence must yield a violation");
  Alcotest.(check bool) "order_bug without properties still passes" true
    (dpor Fx.order_bug).Mc.pass

(* The acceptance-criterion reduction ratio: three independent pairs need
   >= 50_000 naive histories (the naive search capped there proves the
   bound) while DPOR collapses them to >= 10x fewer complete replays. *)
let test_reduction_ratio () =
  let d = dpor (Fx.pairs ~m:3) in
  Alcotest.(check bool) "dpor exhaustive" true d.Mc.exhaustive;
  let n = naive ~max_states:50_000 (Fx.pairs ~m:3) in
  Alcotest.(check bool) "naive needs >= 50k histories" true n.Mc.stats.Mc.capped;
  Alcotest.(check bool) "at least 10x reduction" true
    (d.Mc.stats.Mc.runs * 10 <= 50_000);
  (* the reduction helper the bench model_check section records *)
  let dpor_runs, naive_runs, naive_capped = Check.reduction () in
  Alcotest.(check bool) "helper agrees: naive capped" true naive_capped;
  Alcotest.(check int) "helper agrees: naive cap" 50_000 naive_runs;
  Alcotest.(check int) "helper agrees: dpor runs" d.Mc.stats.Mc.runs dpor_runs

(* Verdicts are byte-identical at any -j: fold order is queue order, not
   completion order. *)
let test_parallel_determinism () =
  let run pool =
    Mc.check ~backend:Mc.Dpor ~pool ~properties:[ Fx.quorum_validity ]
      (Mc.system ~relaxed:true (Fx.quorum_vote ~n:3 ~zeros:2))
  in
  let v1 = run Parallel.Pool.sequential in
  let v4 = Parallel.Pool.with_pool ~domains:4 run in
  Alcotest.(check string) "repr at -j1 = repr at -j4"
    (Mc.repr string_of_int v1) (Mc.repr string_of_int v4)

(* ------------------------------------------------------------------ *)
(* Relaxed environments: stop-cut coverage and deadlock counting. *)

let test_relaxed_stop_cuts () =
  let v = dpor ~relaxed:true (Fx.quorum_vote ~n:3 ~zeros:2) in
  let stopped, maximal =
    List.partition (fun c -> c.Mc.cls_stopped) v.Mc.classes
  in
  Alcotest.(check bool) "stopped classes exist" true (stopped <> []);
  Alcotest.(check int) "maximal classes unchanged" 4 (List.length maximal);
  Alcotest.(check bool) "stop cuts replayed" true (v.Mc.stats.Mc.stop_cuts > 0);
  Alcotest.(check bool) "relaxed stays exhaustive" true v.Mc.exhaustive;
  (* under a stop the partially-voted configurations are reachable: some
     stopped class has a player decided while another is still waiting *)
  Alcotest.(check bool) "a partial configuration is covered" true
    (List.exists
       (fun c ->
         Array.exists (fun m -> m <> None) c.Mc.cls_moves
         && Array.exists (fun m -> m = None) c.Mc.cls_moves)
       stopped)

let test_deadlock_detection () =
  (* byzantine_echo: the byzantine sender's extra messages stay pending
     after both honest players halt — stuck states, counted distinctly *)
  let v = dpor Fx.byzantine_echo in
  Alcotest.(check int) "byz_echo stuck states" 3 v.Mc.deadlocks;
  let v = dpor Fx.ping_pong in
  Alcotest.(check int) "ping_pong has none" 0 v.Mc.deadlocks;
  Alcotest.(check bool) "worst wait is positive" true (v.Mc.worst_wait >= 0)

(* ------------------------------------------------------------------ *)
(* Property checking + counterexample minimization on the quorum vote. *)

let test_quorum_pass () =
  let v = dpor ~properties:[ Fx.quorum_validity ] (Fx.quorum_vote ~n:4 ~zeros:1) in
  Alcotest.(check bool) "n=4 validity holds" true v.Mc.pass;
  Alcotest.(check bool) "n=4 exhaustive" true v.Mc.exhaustive

let test_quorum_violation_minimized () =
  let sys = Mc.system (Fx.quorum_vote ~n:3 ~zeros:2) in
  let v = Mc.check ~properties:[ Fx.quorum_validity ] sys in
  Alcotest.(check bool) "n=3 validity fails" false v.Mc.pass;
  match v.Mc.violation with
  | None -> Alcotest.fail "expected a counterexample"
  | Some ce ->
      Alcotest.(check string) "property name" "validity" ce.Mc.ce_property;
      (* two forged zeros into one honest player suffice *)
      Alcotest.(check int) "minimized length" 2 (List.length ce.Mc.ce_script);
      Alcotest.(check bool) "was minimized from a longer witness" true
        (ce.Mc.ce_original > 2);
      (* confirm the counterexample independently of the search *)
      let o, willed =
        Mc.replay sys ~script:ce.Mc.ce_script ~stopped:ce.Mc.ce_stopped
          ~max_steps:1000 ()
      in
      Alcotest.(check bool) "replay reproduces the violation" true
        (Fx.quorum_validity.Mc.p_check ~stopped:ce.Mc.ce_stopped ~willed o <> None)

(* ------------------------------------------------------------------ *)
(* Independence cross-validation: the checker's happens-before races must
   agree exactly with the race detector's vector-clock candidates. *)

let test_races_cross_validation () =
  List.iter
    (fun (name, make) ->
      let r = Sim.Explore.explore ~make ~max_histories:200 () in
      List.iter
        (fun o ->
          let mc_races =
            List.map
              (fun (dst, a, b) ->
                (dst, (a.Mc.src, a.Mc.dst, a.Mc.seq), (b.Mc.src, b.Mc.dst, b.Mc.seq)))
              (Mc.races_of_outcome o)
          in
          let vc_races =
            List.map
              (fun (c : Race.candidate) ->
                ( c.Race.c_dst,
                  (c.Race.c_first.Race.e_src, c.Race.c_first.Race.e_dst,
                   c.Race.c_first.Race.e_seq),
                  (c.Race.c_second.Race.e_src, c.Race.c_second.Race.e_dst,
                   c.Race.c_second.Race.e_seq) ))
              (Race.candidates_of_outcome o)
          in
          Alcotest.(check bool)
            (name ^ ": hb races = vector-clock candidates")
            true
            (List.sort compare mc_races = List.sort compare vc_races))
        r.Sim.Explore.outcomes)
    [
      ("ping_pong", Fx.ping_pong);
      ("threshold_sum", Fx.threshold_sum);
      ("order_bug", Fx.order_bug);
      ("byzantine_echo", Fx.byzantine_echo);
    ]

(* ------------------------------------------------------------------ *)
(* Explore satellites: truncation accounting and three-valued agreement. *)

let endless () =
  let bounce peer =
    Sim.Types.
      {
        start = (fun () -> if peer = 1 then [ Send (1, 0) ] else []);
        receive = (fun ~src:_ v -> [ Send (peer, v + 1) ]);
        will = (fun () -> None);
      }
  in
  [| bounce 1; bounce 0 |]

let test_explore_truncation () =
  let r = Sim.Explore.explore ~make:endless ~max_steps:5 () in
  Alcotest.(check bool) "histories truncated" true (r.Sim.Explore.truncated > 0);
  Alcotest.(check bool) "not capped: budget was not the limit" false
    r.Sim.Explore.capped;
  Alcotest.(check bool) "truncation clears exhaustive" false
    r.Sim.Explore.exhaustive;
  (* the checker counts the same truncations *)
  let v = dpor ~max_states:100 (fun () -> endless ()) in
  Alcotest.(check bool) "mc counts truncated histories" true
    (v.Mc.stats.Mc.truncated > 0);
  Alcotest.(check bool) "mc not exhaustive" false v.Mc.exhaustive

let test_explore_agreement () =
  let proj (o : int Sim.Types.outcome) = o.Sim.Types.moves in
  let r = Sim.Explore.explore ~make:Fx.ping_pong () in
  Alcotest.(check bool) "ping_pong agrees" true
    (Sim.Explore.agreement proj r = Sim.Explore.Agree);
  Alcotest.(check bool) "boolean collapse" true
    (Sim.Explore.all_outcomes_agree proj r);
  let r = Sim.Explore.explore ~make:Fx.order_bug () in
  Alcotest.(check bool) "order_bug disagrees" true
    (Sim.Explore.agreement proj r = Sim.Explore.Disagree);
  let empty =
    Sim.Explore.
      { outcomes = []; histories = 0; truncated = 0; capped = true; exhaustive = false }
  in
  Alcotest.(check bool) "no outcomes is vacuous, not agreement" true
    (Sim.Explore.agreement proj empty = Sim.Explore.Vacuous);
  match Sim.Explore.all_outcomes_agree proj empty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all_outcomes_agree must raise on vacuous input"

(* ------------------------------------------------------------------ *)
(* Runner.Step: the stateful driver interface the checker is built on. *)

let test_step_interface () =
  let module Step = Sim.Runner.Step in
  let c = Step.create (Fx.ping_pong ()) in
  Step.deliver_starts c;
  Alcotest.(check int) "one real message pending" 1
    (Sim.Pending_set.count (Step.pending c));
  let h0 = Step.state_hash c in
  let steps0 = Step.steps c in
  (match Step.find c ~src:0 ~dst:1 ~seq:1 with
  | None -> Alcotest.fail "0->1 #1 must be pending"
  | Some view ->
      Step.deliver c ~id:view.Sim.Types.id;
      Alcotest.(check int) "steps counted" (steps0 + 1) (Step.steps c);
      Alcotest.(check bool) "state hash moved" true (Step.state_hash c <> h0));
  (match Step.find c ~src:1 ~dst:0 ~seq:1 with
  | None -> Alcotest.fail "reply 1->0 #1 must be pending"
  | Some view -> Step.deliver c ~id:view.Sim.Types.id);
  Alcotest.(check bool) "all pending drained" true
    (Sim.Pending_set.is_empty (Step.pending c));
  let o = Step.finish c in
  Alcotest.(check bool) "finished all-halted" true
    (o.Sim.Types.termination = Sim.Types.All_halted);
  Alcotest.(check (list (option int))) "moves" [ Some 1; Some 0 ]
    (Array.to_list o.Sim.Types.moves)

(* ------------------------------------------------------------------ *)
(* qcheck differential suite: random small protocols, DPOR = naive, and
   both agree with sampled Runner runs. *)

(* A random protocol as a data table (so every instantiation is fresh):
   n processes; a global pool of at most 6 messages split between start
   sends and k-th-receive reactions; optional move/halt per process. *)
let random_protocol seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  let n = 2 + Random.State.int st 2 in
  let depth = 3 in
  let budget = 1 + Random.State.int st 6 in
  let start_sends = Array.make n [] in
  let reactions = Array.init n (fun _ -> Array.make depth []) in
  for _ = 1 to budget do
    let owner = Random.State.int st n in
    let dst = (owner + 1 + Random.State.int st (n - 1)) mod n in
    let v = Random.State.int st 100 in
    if Random.State.bool st then start_sends.(owner) <- (dst, v) :: start_sends.(owner)
    else
      let k = Random.State.int st depth in
      reactions.(owner).(k) <- (dst, v) :: reactions.(owner).(k)
  done;
  let decide =
    Array.init n (fun _ ->
        if Random.State.bool st then
          Some (Random.State.int st depth, Random.State.int st 10, Random.State.bool st)
        else None)
  in
  fun () ->
    Array.init n (fun me ->
        let got = ref 0 in
        Sim.Types.
          {
            start =
              (fun () -> List.map (fun (d, v) -> Send (d, v)) start_sends.(me));
            receive =
              (fun ~src:_ _ ->
                let k = !got in
                incr got;
                let sends =
                  if k < depth then
                    List.map (fun (d, v) -> Send (d, v)) reactions.(me).(k)
                  else []
                in
                sends
                @
                match decide.(me) with
                | Some (km, a, halts) when km = k ->
                    Move a :: (if halts then [ Halt ] else [])
                | _ -> []);
            will = (fun () -> None);
          })

let qcheck_differential =
  QCheck.Test.make ~name:"random protocols: dpor classes = naive classes"
    ~count:25 QCheck.small_nat (fun seed ->
      let make = random_protocol seed in
      let d = dpor make and n = naive make in
      QCheck.assume n.Mc.exhaustive;
      class_set d = class_set n && d.Mc.exhaustive
      && d.Mc.stats.Mc.runs <= n.Mc.stats.Mc.runs)

let qcheck_sampled_runs =
  QCheck.Test.make
    ~name:"random protocols: 10 sampled runs land in the explored classes"
    ~count:20 QCheck.small_nat (fun seed ->
      let make = random_protocol seed in
      let d = dpor make in
      let keys =
        List.map
          (fun c -> (c.Mc.cls_termination, Array.to_list c.Mc.cls_moves))
          d.Mc.classes
      in
      List.for_all
        (fun s ->
          let o =
            Sim.Runner.run
              (Sim.Runner.config ~scheduler:(Sim.Scheduler.random_seeded s)
                 (make ()))
          in
          List.mem
            (o.Sim.Types.termination, Array.to_list o.Sim.Types.moves)
            keys)
        (List.init 10 (fun s -> (seed * 10) + s)))

(* ------------------------------------------------------------------ *)
(* The fixture catalog: every fixture's verdict matches its expectation
   (this is exactly what `ctmed check` exits on). *)

let test_catalog_expectations () =
  List.iter
    (fun (f : Check.fixture) ->
      let r = f.Check.run () in
      Alcotest.(check bool) (f.Check.name ^ ": verdict matches expectation") true
        r.Check.ok;
      if f.Check.expect_violation then
        Alcotest.(check bool) (f.Check.name ^ ": counterexample printed") true
          (r.Check.counterexample <> None))
    (List.filter
       (fun (f : Check.fixture) -> f.Check.name <> "pitfall64")
       Check.fixtures)

(* Lemma 6.10 end to end: in the relaxed mediator game every stopped cut
   respects STOP-batch atomicity (0 or all 3 players moved) — enforced by
   the batch-completion rule of Runner.Step.stop which the checker's cut
   replays go through. *)
let test_mediator_batch_atomicity () =
  match Check.find "e1-small" with
  | None -> Alcotest.fail "e1-small fixture missing"
  | Some f ->
      let r = f.Check.run () in
      Alcotest.(check bool) "atomicity property holds" true r.Check.pass;
      Alcotest.(check bool) "exhaustive" true r.Check.exhaustive;
      Alcotest.(check bool) "stop cuts were covered" true
        (r.Check.stats.Mc.stop_cuts > 0)

(* The §6.4 coalition stall: a genuine positive — found, minimized (under
   a replay budget) and reported even with a tiny search cap. *)
let test_pitfall_counterexample () =
  match Check.find "pitfall64" with
  | None -> Alcotest.fail "pitfall64 fixture missing"
  | Some f ->
      let r = f.Check.run () in
      Alcotest.(check bool) "stall violation found" true r.Check.ok;
      Alcotest.(check bool) "search was capped" true r.Check.stats.Mc.capped;
      Alcotest.(check bool) "violation is an error finding" true
        (List.exists
           (fun fd -> fd.Analysis.Finding.severity = Analysis.Finding.Error)
           r.Check.findings)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "mc"
    [
      ( "dpor",
        [
          Alcotest.test_case "vs naive on fixtures" `Quick test_dpor_vs_naive_fixtures;
          Alcotest.test_case "confluence verdicts" `Quick test_confluence_verdicts;
          Alcotest.test_case "reduction ratio >= 10x" `Quick test_reduction_ratio;
          Alcotest.test_case "byte-identical at -j1/-j4" `Quick
            test_parallel_determinism;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "relaxed stop cuts" `Quick test_relaxed_stop_cuts;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        ] );
      ( "properties",
        [
          Alcotest.test_case "quorum n=4 passes" `Quick test_quorum_pass;
          Alcotest.test_case "quorum n=3 minimized" `Quick test_quorum_violation_minimized;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "hb races vs vector clocks" `Quick
            test_races_cross_validation;
        ]
        @ qsuite [ qcheck_differential; qcheck_sampled_runs ] );
      ( "substrate",
        [
          Alcotest.test_case "explore truncation" `Quick test_explore_truncation;
          Alcotest.test_case "explore agreement" `Quick test_explore_agreement;
          Alcotest.test_case "step interface" `Quick test_step_interface;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "expectations hold" `Quick test_catalog_expectations;
          Alcotest.test_case "mediator batch atomicity" `Quick
            test_mediator_batch_atomicity;
          Alcotest.test_case "section 6.4 stall" `Slow test_pitfall_counterexample;
        ] );
    ]
