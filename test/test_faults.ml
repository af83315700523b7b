(* The deterministic fault-injection plane (ISSUE: robustness PR):
   config validation and the --faults spec grammar, plan purity (a pure
   function of seed + config, order-independent), the runner-level
   semantics of each fault kind, the hardened Runner.config validation,
   the satellite interaction tests (Delay pins vs the starvation
   override vs mediator-batch atomicity under relaxed Stop_delivery),
   and the hardened Verify.map_trials retry/skip/degrade policies. *)

module Metrics = Obs.Metrics
module Verify = Cheaptalk.Verify
module Runner = Sim.Runner
module Scheduler = Sim.Scheduler
module T = Sim.Types
module Plan = Faults.Plan

let no_will () = None

let invalid_arg name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Config construction and the spec grammar *)

let test_make_validation () =
  invalid_arg "rate above 1" (fun () -> Faults.make ~dup:1.5 ());
  invalid_arg "negative rate" (fun () -> Faults.make ~corrupt:(-0.1) ());
  invalid_arg "zero delay window" (fun () -> Faults.make ~delay_decisions:0 ());
  invalid_arg "zero crash window" (fun () -> Faults.make ~crash_window:0 ())

let test_spec_round_trip () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        ("round-trips: " ^ Faults.to_string c)
        true
        (Faults.of_string (Faults.to_string c) = c))
    [
      Faults.none;
      Faults.make ~delay:0.25 ();
      Faults.make ~dup:0.1 ~corrupt:0.05 ~delay:0.2 ~crash:0.3 ~delay_decisions:7
        ~crash_window:3 ();
    ]

let test_spec_partial_and_errors () =
  let c = Faults.of_string "dup=0.1" in
  Alcotest.(check (float 1e-9)) "dup parsed" 0.1 c.Faults.dup_rate;
  Alcotest.(check (float 1e-9)) "others default" 0.0 c.Faults.corrupt_rate;
  List.iter
    (fun s -> invalid_arg ("rejects " ^ s) (fun () -> Faults.of_string s))
    [ "dup=2"; "dup=abc"; "frob=1"; "nonsense" ]

(* ------------------------------------------------------------------ *)
(* Plan purity and determinism *)

let grid_verdicts plan =
  List.concat_map
    (fun src ->
      List.concat_map
        (fun dst ->
          List.map
            (fun seq -> Plan.message_fault plan ~src ~dst ~seq)
            (List.init 50 Fun.id))
        [ 0; 1; 2; 3 ])
    [ 0; 1; 2; 3 ]

let busy = Faults.make ~dup:0.2 ~corrupt:0.2 ~delay:0.2 ~crash:0.5 ()

let test_plan_pure () =
  let a = Plan.make ~seed:42 busy and b = Plan.make ~seed:42 busy in
  Alcotest.(check bool) "same verdicts" true (grid_verdicts a = grid_verdicts b);
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "same crash window (pid %d)" pid)
        true
        (Plan.crash_window a ~pid = Plan.crash_window b ~pid))
    [ 0; 1; 2; 3 ]

let test_plan_order_independent () =
  (* verdicts depend only on the channel coordinates, never on query
     order: asking in reverse gives the reversed list of the same answers *)
  let plan = Plan.make ~seed:9 busy in
  let forward = grid_verdicts plan in
  let queries =
    List.concat_map
      (fun src ->
        List.concat_map
          (fun dst -> List.map (fun seq -> (src, dst, seq)) (List.init 50 Fun.id))
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let backward =
    List.rev_map (fun (src, dst, seq) -> Plan.message_fault plan ~src ~dst ~seq)
      (List.rev queries)
  in
  Alcotest.(check bool) "order independent" true (forward = backward)

let test_plan_seed_sensitive () =
  let a = Plan.make ~seed:1 busy and b = Plan.make ~seed:2 busy in
  Alcotest.(check bool) "different seeds differ somewhere" false
    (grid_verdicts a = grid_verdicts b && List.for_all
       (fun pid -> Plan.crash_window a ~pid = Plan.crash_window b ~pid)
       [ 0; 1; 2; 3 ])

let test_none_plan_inert () =
  let plan = Plan.make ~seed:5 Faults.none in
  Alcotest.(check bool) "no message faults" true
    (List.for_all (( = ) None) (grid_verdicts plan));
  Alcotest.(check bool) "no crash windows" true
    (List.for_all (fun pid -> Plan.crash_window plan ~pid = None) [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Runner semantics of each kind *)

(* pid 0 sends the given payloads at start; every other pid records what
   it receives (and in which global order) into [arrivals]. *)
let recorder_world sends arrivals n =
  let sender =
    {
      T.start = (fun () -> List.map (fun (dst, j) -> T.Send (dst, j)) sends);
      receive = (fun ~src:_ _ -> []);
      will = no_will;
    }
  in
  let recorder me =
    {
      T.start = (fun () -> []);
      receive =
        (fun ~src:_ j ->
          arrivals := (me, j) :: !arrivals;
          []);
      will = no_will;
    }
  in
  Array.init n (fun pid -> if pid = 0 then sender else recorder pid)

let only_fault ~on k ~src ~dst ~seq =
  if (src, dst, seq) = on then Some k else None

let test_duplicate_redelivered () =
  let arrivals = ref [] in
  let o =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ())
         ~faults:(Plan.custom (only_fault ~on:(0, 1, 1) Faults.Duplicate))
         (recorder_world [ (1, 7) ] arrivals 2))
  in
  let m = o.T.metrics in
  Alcotest.(check (list (pair int int))) "payload arrives twice" [ (1, 7); (1, 7) ]
    (List.rev !arrivals);
  Alcotest.(check int) "one dup injected" 1 m.Metrics.injected_dup;
  Alcotest.(check int) "conservation" (Metrics.sent_total m)
    (Metrics.delivered_total m + Metrics.dropped_total m)

let test_corrupt_applies_fuzz () =
  let arrivals = ref [] in
  let o =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ())
         ~faults:(Plan.custom (only_fault ~on:(0, 1, 1) Faults.Corrupt))
         ~fuzz:(fun ~src:_ ~dst:_ ~seq:_ j -> j + 100)
         (recorder_world [ (1, 7) ] arrivals 2))
  in
  Alcotest.(check (list (pair int int))) "payload mangled" [ (1, 107) ] (List.rev !arrivals);
  Alcotest.(check int) "one corruption injected" 1 o.T.metrics.Metrics.injected_corrupt

let test_corrupt_without_fuzz_inert () =
  (* a fault the message type cannot express is not counted *)
  let arrivals = ref [] in
  let o =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ())
         ~faults:(Plan.custom (only_fault ~on:(0, 1, 1) Faults.Corrupt))
         (recorder_world [ (1, 7) ] arrivals 2))
  in
  Alcotest.(check (list (pair int int))) "payload untouched" [ (1, 7) ] (List.rev !arrivals);
  Alcotest.(check int) "nothing counted" 0 o.T.metrics.Metrics.injected_corrupt

let test_delay_defers_then_delivers () =
  (* 0 sends to 1 then to 2; the 0 -> 1 message is pinned for 5
     decisions, so 2 hears first — but the pin expires and everything is
     delivered *)
  let arrivals = ref [] in
  let o =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ())
         ~faults:
           (Plan.custom
              ~config:(Faults.make ~delay_decisions:5 ())
              (only_fault ~on:(0, 1, 1) Faults.Delay))
         (recorder_world [ (1, 7); (2, 8) ] arrivals 3))
  in
  let m = o.T.metrics in
  Alcotest.(check (list (pair int int))) "pinned message overtaken" [ (2, 8); (1, 7) ]
    (List.rev !arrivals);
  Alcotest.(check int) "one delay injected" 1 m.Metrics.injected_delay;
  Alcotest.(check int) "nothing dropped" 0 (Metrics.dropped_total m)

let test_crash_window_defers_never_drops () =
  let arrivals = ref [] in
  let o =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ())
         ~faults:
           (Plan.custom
              ~crash:(fun ~pid -> if pid = 1 then Some (0, 8) else None)
              (fun ~src:_ ~dst:_ ~seq:_ -> None))
         (recorder_world [ (1, 7); (2, 8) ] arrivals 3))
  in
  let m = o.T.metrics in
  Alcotest.(check (list (pair int int))) "silent process hears last, loses nothing"
    [ (2, 8); (1, 7) ] (List.rev !arrivals);
  Alcotest.(check int) "one crash window" 1 m.Metrics.injected_crash;
  Alcotest.(check int) "all delivered" (Metrics.sent_total m) (Metrics.delivered_total m)

(* ------------------------------------------------------------------ *)
(* Hardened Runner.config validation (satellite 1) *)

let two_inert () =
  Array.make 2
    { T.start = (fun () -> []); receive = (fun ~src:_ (_ : int) -> []); will = no_will }

let test_config_validation () =
  invalid_arg "max_steps 0" (fun () ->
      Runner.config ~max_steps:0 ~scheduler:(Scheduler.fifo ()) (two_inert ()));
  invalid_arg "starvation_bound 0" (fun () ->
      Runner.config ~starvation_bound:0 ~scheduler:(Scheduler.fifo ()) (two_inert ()));
  invalid_arg "negative starvation_bound" (fun () ->
      Runner.config ~starvation_bound:(-3) ~scheduler:(Scheduler.fifo ()) (two_inert ()));
  invalid_arg "fuel 0" (fun () ->
      Runner.config ~fuel:0 ~scheduler:(Scheduler.fifo ()) (two_inert ()));
  invalid_arg "wall_limit 0" (fun () ->
      Runner.config ~wall_limit:0.0 ~scheduler:(Scheduler.fifo ()) (two_inert ()))

(* ------------------------------------------------------------------ *)
(* Satellite 4: Delay pins vs the fairness override vs batch atomicity *)

let test_starvation_override_beats_delay_pin () =
  (* newest-first scheduling starves the initial 0 -> 2 message; a Delay
     pin far beyond the starvation bound pins it harder. The fairness
     override must still force-deliver it: the run ends with nothing
     dropped and the starvation counter ticked. *)
  let newest =
    Scheduler.custom ~name:"newest" ~relaxed:false (fun ~step:_ ~history:_ ~pending ->
        T.Deliver (Sim.Pending_set.newest pending).T.id)
  in
  let got_99 = ref false in
  let chatty me =
    let other = 1 - me in
    {
      T.start = (fun () -> if me = 0 then [ T.Send (2, 99); T.Send (other, 1) ] else []);
      receive =
        (fun ~src:_ j -> if j >= 30 then [ T.Halt ] else [ T.Send (other, j + 1) ]);
      will = no_will;
    }
  in
  let listener =
    {
      T.start = (fun () -> []);
      receive =
        (fun ~src:_ j ->
          if j = 99 then got_99 := true;
          []);
      will = no_will;
    }
  in
  let o =
    Runner.run
      (Runner.config ~starvation_bound:4 ~scheduler:newest
         ~faults:
           (Plan.custom
              ~config:(Faults.make ~delay_decisions:10_000 ())
              (only_fault ~on:(0, 2, 1) Faults.Delay))
         [| chatty 0; chatty 1; listener |])
  in
  let m = o.T.metrics in
  Alcotest.(check bool) "pinned message force-delivered" true !got_99;
  Alcotest.(check bool) "starvation override fired" true (m.Metrics.starved > 0);
  Alcotest.(check int) "one delay injected" 1 m.Metrics.injected_delay;
  Alcotest.(check int) "nothing dropped" 0 (Metrics.dropped_total m)

let mediator_batch_world got0 got1 =
  let player flag =
    {
      T.start = (fun () -> []);
      receive =
        (fun ~src:_ (_ : int) ->
          flag := true;
          []);
      will = no_will;
    }
  in
  let mediator =
    {
      T.start = (fun () -> [ T.Send (0, 0); T.Send (1, 1) ]);
      receive = (fun ~src:_ _ -> []);
      will = no_will;
    }
  in
  [| player got0; player got1; mediator |]

let test_batch_atomicity_beats_delay_pin () =
  (* the Section 5 rule under faults: a relaxed Stop_delivery right
     after the first mediator message must still complete the batch,
     even though the second batch message carries a Delay pin that would
     otherwise hold it for 10k decisions *)
  let got0 = ref false and got1 = ref false in
  let o =
    Runner.run
      (Runner.config ~mediator:2
         ~scheduler:(Scheduler.relaxed_stop_after 4)
         ~faults:
           (Plan.custom
              ~config:(Faults.make ~delay_decisions:10_000 ())
              (only_fault ~on:(2, 1, 1) Faults.Delay))
         (mediator_batch_world got0 got1))
  in
  Alcotest.(check bool) "player 0 got its message" true !got0;
  Alcotest.(check bool) "pinned batch message still completes the batch" true !got1;
  Alcotest.(check int) "both delivered" 2 o.T.messages_delivered;
  Alcotest.(check int) "the pin was injected" 1 o.T.metrics.Metrics.injected_delay

let test_batch_atomicity_beats_crash_window () =
  let got0 = ref false and got1 = ref false in
  let o =
    Runner.run
      (Runner.config ~mediator:2
         ~scheduler:(Scheduler.relaxed_stop_after 4)
         ~faults:
           (Plan.custom
              ~crash:(fun ~pid -> if pid = 1 then Some (0, 10_000) else None)
              (fun ~src:_ ~dst:_ ~seq:_ -> None))
         (mediator_batch_world got0 got1))
  in
  Alcotest.(check bool) "batch completed into the crash window" true (!got0 && !got1);
  Alcotest.(check int) "both delivered" 2 o.T.messages_delivered

(* ------------------------------------------------------------------ *)
(* Hardened map_trials (satellite 3 + tentpole harness) *)

(* Fails on every first attempt: trial seeds are small, derived retry
   seeds are ~30-bit and virtually never < 100_000. *)
let flaky s = if s < 100_000 then failwith "flaky" else s

(* Fails permanently for even trial seeds. *)
let half_broken s = if s < 100_000 && s mod 2 = 0 then failwith "even" else s

let test_retries_recover () =
  let stats = Verify.trial_stats () in
  let r =
    Verify.map_trials ~retries:2 ~on_trial_error:Verify.Degrade ~stats ~samples:8
      ~seed:500 flaky
  in
  Alcotest.(check int) "all trials kept" 8 (Array.length r);
  Alcotest.(check int) "one retry per trial" 8 stats.Verify.retried;
  Alcotest.(check int) "nothing degraded" 0 (Verify.degraded stats)

let test_skip_drops_failures () =
  let r =
    Verify.map_trials ~on_trial_error:Verify.Skip ~samples:8 ~seed:500 half_broken
  in
  Alcotest.(check (list int)) "only the odd seeds survive, in order"
    [ 501; 503; 505; 507 ] (Array.to_list r)

let test_degrade_records_failures_in_seed_order () =
  let stats = Verify.trial_stats () in
  let r =
    Verify.map_trials ~on_trial_error:Verify.Degrade ~stats ~samples:8 ~seed:500
      half_broken
  in
  Alcotest.(check int) "survivors" 4 (Array.length r);
  Alcotest.(check int) "degraded count" 4 (Verify.degraded stats);
  Alcotest.(check (list int)) "failure seeds in seed order" [ 500; 502; 504; 506 ]
    (List.map (fun f -> f.Verify.seed) stats.Verify.failures);
  Alcotest.(check (list int)) "single attempt each" [ 1; 1; 1; 1 ]
    (List.map (fun f -> f.Verify.attempts) stats.Verify.failures)

let test_fail_names_lowest_seed () =
  let stats = Verify.trial_stats () in
  match
    Verify.map_trials ~pool:Parallel.Pool.sequential ~stats ~samples:8 ~seed:500
      half_broken
  with
  | _ -> Alcotest.fail "expected Trial_failed"
  | exception Parallel.Pool.Trial_failed { seed; exn = Failure msg; _ } ->
      Alcotest.(check int) "lowest failing seed" 500 seed;
      Alcotest.(check string) "original exception" "even" msg
  | exception Parallel.Pool.Trial_failed _ -> Alcotest.fail "wrong wrapped exception"

let test_fatal_never_retried () =
  let stats = Verify.trial_stats () in
  match
    Verify.map_trials ~retries:5 ~on_trial_error:Verify.Degrade ~stats ~samples:2
      ~seed:500 (fun s -> if s = 500 then assert false else s)
  with
  | _ -> Alcotest.fail "Assert_failure must propagate"
  | exception Assert_failure _ ->
      Alcotest.(check int) "no retries burnt on a fatal exn" 0 stats.Verify.retried

let test_retry_seed_deterministic () =
  Alcotest.(check int) "same inputs, same derived seed"
    (Verify.retry_seed ~seed:41 ~attempt:1)
    (Verify.retry_seed ~seed:41 ~attempt:1);
  Alcotest.(check bool) "distinct attempts, distinct seeds" true
    (Verify.retry_seed ~seed:41 ~attempt:1 <> Verify.retry_seed ~seed:41 ~attempt:2)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The live transport backend accounts faults exactly like the sim *)

let test_live_backend_fault_accounting () =
  (* same seed, same fault plan: the live (effects/domains) backend must
     charge every injected fault to the same per-kind counter the
     simulator does — corruptions included, so the fuzz hook must fire
     on the live delivery path too — and obey the same conservation
     law. Aggregated across seeds the plans must actually fire each
     kind, otherwise this test would vacuously pass on a backend that
     skips injection entirely. *)
  let cfg =
    Faults.make ~dup:0.1 ~corrupt:0.1 ~delay:0.15 ~crash:0.3 ~delay_decisions:6
      ~crash_window:4 ()
  in
  let config seed =
    Runner.config
      ~scheduler:(Scheduler.random_seeded seed)
      ~faults:(Plan.make ~seed cfg)
      ~fuzz:(fun ~src:_ ~dst:_ ~seq:_ m -> m + 1000)
      (Analysis.Fixtures.quorum_vote ~n:4 ~zeros:1 ())
  in
  let agg = Obs.Agg.create () in
  for seed = 0 to 39 do
    let sim = Runner.run (config seed) in
    let live = Transport.Live.run (config seed) in
    let per_kind m =
      [ m.Metrics.injected_dup; m.Metrics.injected_corrupt;
        m.Metrics.injected_delay; m.Metrics.injected_crash ]
    in
    Alcotest.(check (list int))
      (Printf.sprintf "per-kind counters at seed %d" seed)
      (per_kind sim.T.metrics) (per_kind live.T.metrics);
    Alcotest.(check string)
      (Printf.sprintf "full deterministic counters at seed %d" seed)
      (Metrics.det_repr sim.T.metrics)
      (Metrics.det_repr live.T.metrics);
    Alcotest.(check int)
      (Printf.sprintf "conservation on live at seed %d" seed)
      (Metrics.sent_total live.T.metrics)
      (Metrics.delivered_total live.T.metrics + Metrics.dropped_total live.T.metrics);
    Obs.Agg.add agg live.T.metrics
  done;
  let total = Obs.Agg.total agg in
  Alcotest.(check bool) "dups fired" true (total.Metrics.injected_dup > 0);
  Alcotest.(check bool) "corruptions fired" true (total.Metrics.injected_corrupt > 0);
  Alcotest.(check bool) "delays fired" true (total.Metrics.injected_delay > 0);
  Alcotest.(check bool) "crash windows fired" true (total.Metrics.injected_crash > 0)

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "spec round-trip" `Quick test_spec_round_trip;
          Alcotest.test_case "partial specs + errors" `Quick test_spec_partial_and_errors;
        ] );
      ( "plan",
        [
          Alcotest.test_case "pure in (seed, config)" `Quick test_plan_pure;
          Alcotest.test_case "order independent" `Quick test_plan_order_independent;
          Alcotest.test_case "seed sensitive" `Quick test_plan_seed_sensitive;
          Alcotest.test_case "none is inert" `Quick test_none_plan_inert;
        ] );
      ( "runner",
        [
          Alcotest.test_case "duplicate redelivered" `Quick test_duplicate_redelivered;
          Alcotest.test_case "corrupt applies fuzz" `Quick test_corrupt_applies_fuzz;
          Alcotest.test_case "corrupt without fuzz is inert" `Quick
            test_corrupt_without_fuzz_inert;
          Alcotest.test_case "delay defers then delivers" `Quick
            test_delay_defers_then_delivers;
          Alcotest.test_case "crash window defers, never drops" `Quick
            test_crash_window_defers_never_drops;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "starvation override beats delay pin" `Quick
            test_starvation_override_beats_delay_pin;
          Alcotest.test_case "batch atomicity beats delay pin" `Quick
            test_batch_atomicity_beats_delay_pin;
          Alcotest.test_case "batch atomicity beats crash window" `Quick
            test_batch_atomicity_beats_crash_window;
          Alcotest.test_case "live backend fault accounting" `Quick
            test_live_backend_fault_accounting;
        ] );
      ( "map-trials",
        [
          Alcotest.test_case "retries recover flaky trials" `Quick test_retries_recover;
          Alcotest.test_case "skip drops failures" `Quick test_skip_drops_failures;
          Alcotest.test_case "degrade records failures in seed order" `Quick
            test_degrade_records_failures_in_seed_order;
          Alcotest.test_case "fail names the lowest seed" `Quick test_fail_names_lowest_seed;
          Alcotest.test_case "fatal exceptions never retried" `Quick
            test_fatal_never_retried;
          Alcotest.test_case "retry seed derivation deterministic" `Quick
            test_retry_seed_deterministic;
        ] );
    ]
