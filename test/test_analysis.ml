(* Tests for the analysis layer (lib/analysis): the race detector is
   cross-validated against Sim.Explore's exhaustive ground truth, the
   effect/circuit linters against hand-built violations and qcheck
   mutants, and the threshold validator against Compile.plan. *)

module Gf = Field.Gf
module F = Analysis.Finding
module Race = Analysis.Race
module EL = Analysis.Effect_lint
module CL = Analysis.Circuit_lint
module Th = Analysis.Thresholds
module Fx = Analysis.Fixtures
module Spec = Mediator.Spec
open Sim.Types

let errors fs = List.map F.to_string (F.errors fs)
let no_errors what fs = Alcotest.(check (list string)) (what ^ ": no errors") [] (errors fs)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Race detector vs Sim.Explore ground truth (the ISSUE's acceptance
   criterion: no false negatives on the seeded bug, no false positives
   on the confluent protocols). *)

let explore_confluent make =
  let r = Sim.Explore.explore ~make () in
  Alcotest.(check bool) "exploration exhaustive" true r.Sim.Explore.exhaustive;
  Sim.Explore.all_outcomes_agree (fun o -> o.moves) r

(* The report's numbers, pinned per fixture: runs, candidates, replays,
   races, outcome races. No fixture skips a candidate or diverges on a
   replay. *)
let check_report name (runs, candidates, replays, races, outcome_races) (r : Race.report) =
  let outcome = List.filter (fun x -> x.Race.verdict = Race.Outcome_race) r.Race.races in
  Alcotest.(check (list int))
    (name ^ ": runs, candidates, replays, races, outcome races, skipped, diverged")
    [ runs; candidates; replays; races; outcome_races; 0; 0 ]
    [
      r.Race.runs;
      r.Race.candidates;
      r.Race.replays;
      List.length r.Race.races;
      List.length outcome;
      r.Race.candidates_skipped;
      r.Race.diverged_replays;
    ]

let check_agreement name pins make =
  let ground = explore_confluent make in
  let report = Race.analyze ~make () in
  check_report name pins report;
  Alcotest.(check bool)
    (name ^ ": detector verdict matches Explore")
    ground
    (not (Race.has_outcome_race report))

let test_race_ping_pong () =
  Alcotest.(check bool) "ping-pong is confluent" true (explore_confluent Fx.ping_pong);
  check_agreement "ping-pong" (6, 0, 0, 0, 0) Fx.ping_pong

let test_race_threshold_sum () =
  Alcotest.(check bool) "threshold-sum is outcome-confluent" true
    (explore_confluent Fx.threshold_sum);
  check_agreement "threshold-sum" (6, 2, 2, 2, 0) Fx.threshold_sum;
  (* the benign quorum race is visible at effect level *)
  let r = Race.analyze ~make:Fx.threshold_sum () in
  Alcotest.(check bool) "effect race surfaced" true
    (List.exists (fun x -> x.Race.verdict = Race.Effect_race) r.Race.races);
  Alcotest.(check bool) "effect races are warnings, not errors" true
    (F.errors (Race.findings r) = [])

let test_race_order_bug () =
  Alcotest.(check bool) "order-bug is NOT confluent" false (explore_confluent Fx.order_bug);
  check_agreement "order-bug" (6, 2, 2, 2, 2) Fx.order_bug;
  let r = Race.analyze ~make:Fx.order_bug () in
  Alcotest.(check bool) "outcome race reported" true (Race.has_outcome_race r);
  Alcotest.(check bool) "outcome races are errors" true (F.errors (Race.findings r) <> [])

let test_race_byzantine_echo () =
  Alcotest.(check bool) "byzantine-echo is confluent" true (explore_confluent Fx.byzantine_echo);
  check_agreement "byzantine-echo" (6, 4, 4, 0, 0) Fx.byzantine_echo

let test_race_mediator_game () =
  (* The mediated play itself (players + mediator process): outcome must
     not depend on the order player messages reach the mediator. *)
  let spec = Spec.coordination ~n:3 in
  let make () =
    Mediator.Protocol.game_processes ~spec ~types:[| 0; 0; 0 |] ~rounds:1 ~wait_for:3
      ~rng:(Random.State.make [| 42 |]) ()
  in
  let r = Race.analyze ~make () in
  check_report "mediator game" (6, 6, 6, 4, 0) r;
  Alcotest.(check bool) "mediator game has no outcome race" false (Race.has_outcome_race r);
  Alcotest.(check bool) "detector actually replayed swaps" true (r.Race.replays > 0)

(* ------------------------------------------------------------------ *)
(* Effect-discipline linter *)

let inert = { start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = (fun () -> None) }

let test_effect_wrap_violations () =
  let bad =
    {
      inert with
      start = (fun () -> [ Move 1; Move 2; Send (5, 0); Halt; Send (0, 0) ]);
      will = (fun () -> Some 9);
    }
  in
  let t = EL.create ~n:2 in
  let w = EL.wrap t ~pid:0 bad in
  ignore (w.start ());
  let has needle = List.exists (fun f -> contains ~needle f.F.detail) (EL.findings t) in
  Alcotest.(check bool) "duplicate Move flagged" true (has "duplicate Move");
  Alcotest.(check bool) "out-of-range send flagged" true (has "out-of-range");
  Alcotest.(check bool) "send after Halt flagged" true (has "Send after Halt");
  (* will() still returns an action after the move *)
  EL.check_wills t [| bad; inert |];
  Alcotest.(check bool) "stale will flagged" true (has "after the player moved")

let test_effect_wrap_clean () =
  let t = EL.create ~n:2 in
  let procs = EL.wrap_all t (Fx.ping_pong ()) in
  let o = Sim.Runner.run (Sim.Runner.config ~scheduler:(Sim.Scheduler.fifo ()) procs) in
  Alcotest.(check bool) "run completed" true (o.termination = All_halted);
  EL.check_wills t procs;
  no_errors "ping-pong wrappers" (EL.findings t)

let test_check_trace_clean () =
  let o =
    Sim.Runner.run
      (Sim.Runner.config ~record:true ~scheduler:(Sim.Scheduler.fifo ()) (Fx.ping_pong ()))
  in
  no_errors "ping-pong trace" (EL.check_trace o);
  no_errors "check_run alias" (Analysis.check_run o)

let test_check_trace_send_after_halt () =
  (* The runner keeps applying effects after Halt, so a [Halt; Send]
     batch leaves a Sent-after-Halted pattern in the trace. *)
  let bad = { inert with start = (fun () -> [ Halt; Send (1, 0) ]) } in
  let procs = [| bad; inert |] in
  let o =
    Sim.Runner.run (Sim.Runner.config ~record:true ~scheduler:(Sim.Scheduler.fifo ()) procs)
  in
  Alcotest.(check bool) "send-after-halt caught in trace" true
    (List.exists
       (fun f -> f.F.severity = F.Error && f.F.detail = "message sent after the sender halted")
       (EL.check_trace o))

(* Every trace reader refuses a run whose config did not record: its
   empty trace would read as a clean lint, no races, an empty chart or
   a digest of nothing. A recorded run of the same config is read. *)
let test_readers_refuse_unrecorded () =
  let run ?record () =
    Sim.Runner.run
      (Sim.Runner.config ?record ~scheduler:(Sim.Scheduler.fifo ()) (Fx.ping_pong ()))
  in
  let off = run () and on = run ~record:true () in
  let refuses name read =
    (match read off with
    | () -> Alcotest.failf "%s read an unrecorded run" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool) (name ^ " names ~record:true") true
          (contains ~needle:"~record:true" msg));
    read on
  in
  refuses "Trace_pp.chart" (fun o -> ignore (Sim.Trace_pp.chart o));
  refuses "Trace_pp.stats" (fun o -> ignore (Sim.Trace_pp.stats o));
  refuses "Runner.message_pattern" (fun o -> ignore (Sim.Runner.message_pattern o));
  refuses "Analysis.check_run" (fun o -> ignore (Analysis.check_run o));
  refuses "Mc.races_of_outcome" (fun o -> ignore (Analysis.Mc.races_of_outcome o));
  refuses "Differential.outcome_repr" (fun o ->
      ignore (Transport.Differential.outcome_repr ~show:string_of_int o))

(* ------------------------------------------------------------------ *)
(* Circuit linter *)

let catalog n = [
  ("coordination", Spec.coordination ~n);
  ("majority_match", Spec.majority_match ~n);
  ("majority_coordination", Spec.majority_coordination ~n);
  ("byzantine_agreement", Spec.byzantine_agreement ~n);
  ("chicken_with_bystanders", Spec.chicken_with_bystanders ~n);
  ("pitfall_minimal", Spec.pitfall_minimal ~n ~k:1);
  ("pitfall_naive", Spec.pitfall_naive ~n ~k:1);
]

let test_circuit_catalog_clean () =
  List.iter (fun (name, spec) -> no_errors name (CL.check_spec spec)) (catalog 5)

let test_circuit_unreachable_gate () =
  let c =
    Circuit.create ~n_inputs:2 ~n_random:0
      ~gates:[| Circuit.Input 0; Circuit.Input 1; Circuit.Add (0, 1) |]
      ~outputs:[| 0; 0 |] ()
  in
  let fs = CL.check c in
  no_errors "constructed circuit" fs;
  Alcotest.(check bool) "dead gates warned" true
    (List.exists (fun f -> f.F.severity = F.Warning && f.F.analyzer = "circuit") fs)

let test_circuit_bad_raw () =
  (* self-reference and out-of-range input, as raw arrays *)
  let fs =
    CL.check_raw ~n_inputs:1 ~n_random:0
      ~gates:[| Circuit.Input 3; Circuit.Add (1, 0); Circuit.Add (0, 0) |]
      ~outputs:[| 5 |]
  in
  Alcotest.(check bool) "raw violations all errors" true (List.length (F.errors fs) >= 3)

let test_circuit_stage_double_release () =
  let c =
    Circuit.create ~n_inputs:2 ~n_random:0
      ~gates:[| Circuit.Input 0; Circuit.Input 1; Circuit.Add (0, 1); Circuit.Add (2, 2) |]
      ~outputs:[| 3; 3 |] ()
  in
  no_errors "well-formed stages"
    (CL.check_stages c ~stages:[| [| 2; 2 |]; [| 3; 3 |] |]);
  (* releasing a later stage's wire early = staged-reveal ordering bug *)
  let fs = CL.check_stages c ~stages:[| [| 3; 3 |]; [| 3; 3 |] |] in
  Alcotest.(check bool) "double release is an error" true (F.errors fs <> [])

(* qcheck: generator output accepted *)
let prop_random_circuits_lint_clean =
  QCheck.Test.make ~name:"random circuits pass the linter with no errors" ~count:100
    QCheck.pos_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let c =
        Circuit.random_circuit rng ~n_inputs:(1 + (seed mod 4)) ~n_random:(seed mod 3)
          ~n_gates:(5 + (seed mod 20)) ~n_outputs:(1 + (seed mod 3))
      in
      F.errors (CL.check c) = [])

(* qcheck: targeted mutation — redirect a gate edge to a non-earlier gate *)
let prop_edge_mutation_rejected =
  QCheck.Test.make ~name:"forward/self edge mutants are rejected" ~count:100 QCheck.pos_int
    (fun seed ->
      let rng = Random.State.make [| seed; 0xBAD |] in
      let c =
        Circuit.random_circuit rng ~n_inputs:2 ~n_random:1 ~n_gates:(8 + (seed mod 12))
          ~n_outputs:2
      in
      let gates = Array.copy c.Circuit.gates in
      let referencing =
        Array.to_list
          (Array.mapi
             (fun i g ->
               match g with
               | Circuit.Add _ | Circuit.Sub _ | Circuit.Mul _ | Circuit.Scale _ -> Some i
               | _ -> None)
             gates)
        |> List.filter_map Fun.id
      in
      match referencing with
      | [] -> QCheck.assume_fail () (* no mutable gate in this draw *)
      | is ->
          let i = List.nth is (seed mod List.length is) in
          (* redirect the first operand to the gate itself: never earlier *)
          gates.(i) <-
            (match gates.(i) with
            | Circuit.Add (_, b) -> Circuit.Add (i, b)
            | Circuit.Sub (_, b) -> Circuit.Sub (i, b)
            | Circuit.Mul (_, b) -> Circuit.Mul (i, b)
            | Circuit.Scale (s, _) -> Circuit.Scale (s, i)
            | g -> g);
          F.errors
            (CL.check_raw ~n_inputs:c.Circuit.n_inputs ~n_random:c.Circuit.n_random ~gates
               ~outputs:c.Circuit.outputs)
          <> [])

(* qcheck: sharing degree bumped past k+t violates the substrate arity *)
let prop_degree_bump_rejected =
  QCheck.Test.make ~name:"degree past k+t breaks the sharing arity" ~count:100
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (k, t) ->
      QCheck.assume (k + t >= 1);
      let n = Th.required_n Th.T41 ~k ~t in
      let faults = Th.faults Th.T41 ~k ~t in
      let good = Th.check_sharing ~n ~degree:(Th.degree ~k ~t) ~faults ~multiplies:true in
      let bumped = Th.check_sharing ~n ~degree:(n - (2 * faults)) ~faults ~multiplies:true in
      F.errors good = [] && F.errors bumped <> [])

(* ------------------------------------------------------------------ *)
(* Threshold validator *)

let test_thresholds_required_n () =
  let req th = Th.required_n th ~k:1 ~t:1 in
  Alcotest.(check int) "T41 n > 4k+4t" 9 (req Th.T41);
  Alcotest.(check int) "T42 n > 3k+3t" 7 (req Th.T42);
  Alcotest.(check int) "T44 n > 3k+4t" 8 (req Th.T44);
  Alcotest.(check int) "T45 n > 2k+3t" 6 (req Th.T45)

let test_thresholds_boundary () =
  List.iter
    (fun th ->
      let n = Th.required_n th ~k:1 ~t:1 in
      let inst n =
        { Th.theorem = th; n; k = 1; t = 1; has_punishment = true; multiplies = true }
      in
      (match Th.validate (inst n) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s at minimal n=%d rejected: %s" (Th.name th) n e);
      Alcotest.(check bool)
        (Th.name th ^ " rejects n-1")
        true
        (match Th.validate (inst (n - 1)) with Error _ -> true | Ok () -> false);
      Alcotest.(check bool)
        (Th.name th ^ " diagnose non-empty at n-1")
        true
        (F.errors (Th.diagnose (inst (n - 1))) <> []))
    Th.all

let prop_diagnose_validate_consistent =
  QCheck.Test.make ~name:"diagnose empty iff validate ok" ~count:500
    QCheck.(
      quad (int_range (-1) 12) (int_range (-1) 3) (int_range (-1) 3)
        (pair bool bool))
    (fun (n, k, t, (has_punishment, multiplies)) ->
      List.for_all
        (fun theorem ->
          let inst = { Th.theorem; n; k; t; has_punishment; multiplies } in
          let ok = match Th.validate inst with Ok () -> true | Error _ -> false in
          ok = (F.errors (Th.diagnose inst) = []))
        Th.all)

let test_thresholds_agree_with_plan () =
  (* The validator is exactly the gate Compile.plan applies. *)
  let spec = Spec.coordination ~n:5 in
  List.iter
    (fun theorem ->
      List.iter
        (fun (k, t) ->
          let plan_ok =
            match Cheaptalk.Compile.plan ~spec ~theorem ~k ~t () with
            | Ok _ -> true
            | Error _ -> false
          in
          let inst =
            {
              Th.theorem;
              n = 5;
              k;
              t;
              has_punishment = Option.is_some spec.Spec.punishment;
              multiplies = Circuit.mul_count spec.Spec.circuit > 0;
            }
          in
          let validate_ok = match Th.validate inst with Ok () -> true | Error _ -> false in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d t=%d" (Th.name theorem) k t)
            validate_ok plan_ok)
        [ (0, 0); (0, 1); (1, 0); (1, 1); (0, 2); (2, 0) ])
    Th.all

(* ------------------------------------------------------------------ *)
(* Satellite: effect-lint sweep over the adversary transformers. The
   wrappers watch every effect the transformed processes emit during a
   full MPC run; in-protocol misbehaviour (withheld or corrupted
   payloads, sends to halted players) is allowed, runner-semantics
   breaches (duplicate Move, out-of-range sends) are not. *)

let sweep_transformers () =
  let spec = Spec.coordination ~n:5 in
  let plan = Cheaptalk.Compile.plan_exn ~spec ~theorem:Cheaptalk.Compile.T41 ~k:0 ~t:1 () in
  let types = Array.make 5 0 in
  let forge rng i =
    [ (Random.State.int rng 5, Mpc.Engine.Output_msg (0, Gf.of_int (i land 0xFF))) ]
  in
  [
    ("silent", fun _honest -> Adversary.Byzantine.silent ());
    ("crash_after", fun honest -> Adversary.Byzantine.crash_after 2 honest);
    ("withhold_from", fun honest -> Adversary.Byzantine.withhold_from ~victim:1 honest);
    ("corrupt_output_shares",
     fun honest -> Adversary.Byzantine.corrupt_output_shares ~offset:Gf.one honest);
    ("corrupt_avss_points",
     fun honest -> Adversary.Byzantine.corrupt_avss_points ~offset:Gf.one honest);
    ("spam", fun _honest -> Adversary.Byzantine.spam ~forge (Random.State.make [| 7 |]));
  ]
  |> List.map (fun (name, transform) ->
         let honest = Cheaptalk.Compile.processes plan ~types ~coin_seed:11 ~seed:3 in
         honest.(0) <- transform honest.(0);
         let t = EL.create ~n:5 in
         let procs = EL.wrap_all t honest in
         let o =
           Sim.Runner.run
             (Sim.Runner.config ~scheduler:(Sim.Scheduler.random_seeded 5) ~max_steps:40_000
                procs)
         in
         ignore o;
         (name, EL.findings t))

let test_adversary_sweep () =
  List.iter (fun (name, fs) -> no_errors ("transformer " ^ name) fs) (sweep_transformers ())

let test_sweep_has_teeth () =
  (* the same harness does flag a wrapper that breaches the semantics *)
  let t = EL.create ~n:2 in
  let rogue = { inert with start = (fun () -> [ Send (99, 0) ]) } in
  let procs = EL.wrap_all t [| rogue; inert |] in
  ignore (Sim.Runner.run (Sim.Runner.config ~scheduler:(Sim.Scheduler.fifo ()) procs));
  Alcotest.(check bool) "rogue send flagged" true (F.errors (EL.findings t) <> [])

(* ------------------------------------------------------------------ *)
(* The Verify.check_runs hook *)

let test_verify_hook () =
  let spec = Spec.coordination ~n:5 in
  let plan = Cheaptalk.Compile.plan_exn ~spec ~theorem:Cheaptalk.Compile.T41 ~k:0 ~t:1 () in
  let r =
    Cheaptalk.Verify.run_once ~check_runs:true plan ~types:(Array.make 5 0)
      ~scheduler:(Sim.Scheduler.fifo ()) ~seed:1
  in
  Alcotest.(check bool) "linted run completes" true (Array.length r.Cheaptalk.Verify.actions = 5)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "analysis"
    [
      ( "race-vs-explore",
        [
          Alcotest.test_case "ping-pong (confluent)" `Quick test_race_ping_pong;
          Alcotest.test_case "threshold-sum (benign effect race)" `Quick test_race_threshold_sum;
          Alcotest.test_case "order-bug (seeded outcome race)" `Quick test_race_order_bug;
          Alcotest.test_case "byzantine-echo (confluent)" `Quick test_race_byzantine_echo;
          Alcotest.test_case "mediator game" `Quick test_race_mediator_game;
        ] );
      ( "effects",
        [
          Alcotest.test_case "wrapper violations" `Quick test_effect_wrap_violations;
          Alcotest.test_case "wrapper clean run" `Quick test_effect_wrap_clean;
          Alcotest.test_case "trace clean" `Quick test_check_trace_clean;
          Alcotest.test_case "trace send-after-halt" `Quick test_check_trace_send_after_halt;
          Alcotest.test_case "readers refuse an unrecorded run" `Quick
            test_readers_refuse_unrecorded;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "catalog specs clean" `Quick test_circuit_catalog_clean;
          Alcotest.test_case "unreachable gate warned" `Quick test_circuit_unreachable_gate;
          Alcotest.test_case "raw violations" `Quick test_circuit_bad_raw;
          Alcotest.test_case "stage double release" `Quick test_circuit_stage_double_release;
        ] );
      ( "circuit-props",
        qsuite
          [
            prop_random_circuits_lint_clean;
            prop_edge_mutation_rejected;
            prop_degree_bump_rejected;
          ] );
      ( "thresholds",
        [
          Alcotest.test_case "required n" `Quick test_thresholds_required_n;
          Alcotest.test_case "boundary" `Quick test_thresholds_boundary;
          Alcotest.test_case "agrees with Compile.plan" `Quick test_thresholds_agree_with_plan;
        ] );
      ("thresholds-props", qsuite [ prop_diagnose_validate_consistent ]);
      ( "adversary-sweep",
        [
          Alcotest.test_case "transformers respect the discipline" `Quick test_adversary_sweep;
          Alcotest.test_case "harness has teeth" `Quick test_sweep_has_teeth;
        ] );
      ("verify-hook", [ Alcotest.test_case "check_runs" `Quick test_verify_hook ]);
    ]
