(* The observability layer (ISSUE 3): per-run metrics collected by
   Sim.Runner, their aggregation, the message-complexity checker, the
   JSON emitter — and the three bugfixes that ride along:

   - scheduler exceptions: fatal ones (Stack_overflow, Out_of_memory,
     Assert_failure) propagate out of Runner.run instead of being
     swallowed into a silent FIFO fallback; non-fatal ones fall back to
     oldest-first AND are counted in metrics.scheduler_exns;
   - per-run scheduler freshness: Runner.run resets decision state, so
     reusing one stateful scheduler across runs equals fresh schedulers;
   - Pool.create rejects non-positive domain counts (tested in
     test_parallel.ml alongside the -j plumbing). *)

module Metrics = Obs.Metrics
module Agg = Obs.Agg
module Complexity = Obs.Complexity
module Json = Obs.Json
module Runner = Sim.Runner
module Scheduler = Sim.Scheduler
module T = Sim.Types

let inert : (int, int) T.process =
  T.{ start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = (fun () -> None) }

(* 0 and 1 exchange [rounds] messages each way, then halt. *)
let ping_pong ~rounds me =
  let other = 1 - me in
  T.
    {
      start = (fun () -> if me = 0 then [ Send (other, 1) ] else []);
      receive =
        (fun ~src:_ j -> if j >= 2 * rounds then [ Halt ] else [ Send (other, j + 1) ]);
      will = (fun () -> None);
    }

let digest (o : int T.outcome) =
  ( Array.to_list o.T.moves,
    o.T.messages_sent,
    o.T.messages_delivered,
    o.T.steps,
    Array.to_list o.T.halted )

(* ------------------------------------------------------------------ *)
(* Metrics arithmetic *)

let sample_metrics =
  {
    Metrics.zero with
    Metrics.runs = 1;
    sent = { Metrics.p2p = 3; p2m = 2; m2p = 1; self = 4 };
    delivered = { Metrics.p2p = 3; p2m = 1; m2p = 0; self = 4 };
    steps = 8;
    batches = 5;
    starved = 1;
  }

let test_merge_zero_neutral () =
  Alcotest.(check string)
    "zero is neutral"
    (Metrics.det_repr sample_metrics)
    (Metrics.det_repr (Metrics.merge Metrics.zero sample_metrics));
  Alcotest.(check string)
    "on both sides"
    (Metrics.det_repr sample_metrics)
    (Metrics.det_repr (Metrics.merge sample_metrics Metrics.zero))

let test_merge_sums () =
  let m = Metrics.merge sample_metrics sample_metrics in
  Alcotest.(check int) "runs" 2 m.Metrics.runs;
  Alcotest.(check int) "sent total" 20 (Metrics.sent_total m);
  Alcotest.(check int) "sent p2m" 4 m.Metrics.sent.Metrics.p2m;
  Alcotest.(check int) "steps" 16 m.Metrics.steps;
  Alcotest.(check int) "starved" 2 m.Metrics.starved

let test_class_index () =
  let check name expect ~mediator ~src ~dst =
    Alcotest.(check int) name expect (Metrics.class_index ~mediator ~src ~dst)
  in
  check "p2p without mediator" 0 ~mediator:None ~src:0 ~dst:1;
  check "self without mediator" 3 ~mediator:None ~src:2 ~dst:2;
  check "p2m" 1 ~mediator:(Some 5) ~src:0 ~dst:5;
  check "m2p" 2 ~mediator:(Some 5) ~src:5 ~dst:1;
  check "p2p with mediator" 0 ~mediator:(Some 5) ~src:0 ~dst:1;
  check "mediator self is self" 3 ~mediator:(Some 5) ~src:5 ~dst:5

(* ------------------------------------------------------------------ *)
(* Runner fills the record *)

let test_runner_metrics_match_outcome () =
  let o =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ())
         [| ping_pong ~rounds:3 0; ping_pong ~rounds:3 1 |])
  in
  let m = o.T.metrics in
  Alcotest.(check int) "runs" 1 m.Metrics.runs;
  Alcotest.(check int) "sent = messages_sent" o.T.messages_sent (Metrics.sent_total m);
  Alcotest.(check int) "delivered = messages_delivered" o.T.messages_delivered
    (Metrics.delivered_total m);
  Alcotest.(check int) "steps" o.T.steps m.Metrics.steps;
  Alcotest.(check int) "nothing dropped" 0 (Metrics.dropped_total m);
  Alcotest.(check int) "all p2p" (Metrics.sent_total m) m.Metrics.sent.Metrics.p2p;
  Alcotest.(check bool) "batches counted" true (m.Metrics.batches > 0)

let test_runner_metrics_mediator_classes () =
  (* player 0 sends to the mediator (pid 1), who answers: one p2m, one m2p *)
  let player =
    T.
      {
        start = (fun () -> [ Send (1, 0) ]);
        receive = (fun ~src:_ _ -> [ Halt ]);
        will = (fun () -> None);
      }
  in
  let mediator =
    T.
      {
        start = (fun () -> []);
        receive = (fun ~src m -> [ Send (src, m); Halt ]);
        will = (fun () -> None);
      }
  in
  let o =
    Runner.run
      (Runner.config ~mediator:1 ~scheduler:(Scheduler.fifo ()) [| player; mediator |])
  in
  let m = o.T.metrics in
  Alcotest.(check int) "p2m" 1 m.Metrics.sent.Metrics.p2m;
  Alcotest.(check int) "m2p" 1 m.Metrics.sent.Metrics.m2p;
  Alcotest.(check int) "p2p" 0 m.Metrics.sent.Metrics.p2p

let test_runner_metrics_self_class () =
  (* the Section 6.1 signalling channel: self-messages get their own class *)
  let signaller =
    T.
      {
        start = (fun () -> [ Send (0, 7); Send (1, 7) ]);
        receive = (fun ~src _ -> if src = 0 then [] else [ Halt ]);
        will = (fun () -> None);
      }
  in
  let o =
    Runner.run (Runner.config ~scheduler:(Scheduler.fifo ()) [| signaller; inert |])
  in
  let m = o.T.metrics in
  Alcotest.(check int) "self" 1 m.Metrics.sent.Metrics.self;
  Alcotest.(check int) "p2p" 1 m.Metrics.sent.Metrics.p2p

let test_runner_metrics_dropped () =
  (* a relaxed stop leaves the tail undelivered and counted as dropped;
     the stop budget also covers the two start-signal deliveries, so a
     budget of 4 delivers exactly 2 real messages *)
  let o =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.relaxed_stop_after 4)
         [| ping_pong ~rounds:5 0; ping_pong ~rounds:5 1 |])
  in
  let m = o.T.metrics in
  Alcotest.(check int) "delivered" 2 (Metrics.delivered_total m);
  Alcotest.(check int) "sent = delivered + dropped" (Metrics.sent_total m)
    (Metrics.delivered_total m + Metrics.dropped_total m);
  Alcotest.(check bool) "something dropped" true (Metrics.dropped_total m > 0)

(* ------------------------------------------------------------------ *)
(* Scheduler exception handling (the try-with-_ bugfix) *)

let crashing_scheduler exn =
  Scheduler.custom ~name:"crashing" ~relaxed:false
    (fun ~step:_ ~history:_ ~pending:_ -> raise exn)

let test_fatal_scheduler_exception_propagates () =
  let sched =
    Scheduler.custom ~name:"asserting" ~relaxed:false
      (fun ~step:_ ~history:_ ~pending:_ -> assert false)
  in
  match
    Runner.run (Runner.config ~scheduler:sched [| ping_pong ~rounds:2 0; ping_pong ~rounds:2 1 |])
  with
  | _ -> Alcotest.fail "Assert_failure must propagate out of Runner.run"
  | exception Assert_failure _ -> ()

let test_fatal_stack_overflow_propagates () =
  match
    Runner.run
      (Runner.config
         ~scheduler:(crashing_scheduler Stack_overflow)
         [| ping_pong ~rounds:2 0; ping_pong ~rounds:2 1 |])
  with
  | _ -> Alcotest.fail "Stack_overflow must propagate out of Runner.run"
  | exception Stack_overflow -> ()

let test_nonfatal_scheduler_exception_counted () =
  (* a scheduler that throws on every third decision: the run completes
     via the oldest-first fallback and the fallbacks are counted *)
  let sched =
    Scheduler.custom ~name:"flaky" ~relaxed:false (fun ~step ~history:_ ~pending ->
        if step mod 3 = 0 then failwith "flaky";
        T.Deliver (Sim.Pending_set.newest pending).T.id)
  in
  let o =
    Runner.run (Runner.config ~scheduler:sched [| ping_pong ~rounds:4 0; ping_pong ~rounds:4 1 |])
  in
  (* ping_pong halts only the receiver of the last message, so a full
     run ends quiescent, not all-halted *)
  Alcotest.(check bool) "run completed" true (o.T.termination = T.Quiescent);
  Alcotest.(check bool) "fallbacks counted" true (o.T.metrics.Metrics.scheduler_exns > 0);
  (* and the same history under fifo delivers the same ping-pong count *)
  Alcotest.(check int) "all messages delivered" o.T.messages_sent o.T.messages_delivered

let test_invalid_decision_counted () =
  let sched =
    Scheduler.custom ~name:"bogus" ~relaxed:false (fun ~step:_ ~history:_ ~pending:_ ->
        T.Deliver (-42))
  in
  let o =
    Runner.run (Runner.config ~scheduler:sched [| ping_pong ~rounds:3 0; ping_pong ~rounds:3 1 |])
  in
  Alcotest.(check bool) "run completed" true (o.T.termination = T.Quiescent);
  Alcotest.(check bool)
    "invalid decisions counted" true
    (o.T.metrics.Metrics.invalid_decisions > 0);
  Alcotest.(check int) "no exn fallbacks" 0 o.T.metrics.Metrics.scheduler_exns

let test_starvation_counted () =
  (* newest-first scheduling plus a long ping-pong starves the initial
     0 -> 2 message past a tiny starvation bound: the driver must
     force-deliver it and count the override *)
  let newest =
    Scheduler.custom ~name:"newest" ~relaxed:false (fun ~step:_ ~history:_ ~pending ->
        T.Deliver (Sim.Pending_set.newest pending).T.id)
  in
  let chatty me =
    let other = 1 - me in
    T.
      {
        start =
          (fun () -> if me = 0 then [ Send (2, 99); Send (other, 1) ] else []);
        receive =
          (fun ~src:_ j -> if j >= 30 then [ Halt ] else [ Send (other, j + 1) ]);
        will = (fun () -> None);
      }
  in
  let o =
    Runner.run
      (Runner.config ~starvation_bound:4 ~scheduler:newest [| chatty 0; chatty 1; inert |])
  in
  Alcotest.(check bool) "starvation counted" true (o.T.metrics.Metrics.starved > 0)

let metrics_with_sent s =
  { Metrics.zero with Metrics.runs = 1; sent = { Metrics.counts_zero with Metrics.p2p = s } }

(* ------------------------------------------------------------------ *)
(* Fault-injection accounting (ISSUE: deterministic fault plane) *)

let heavy_faults =
  Faults.make ~dup:0.15 ~corrupt:0.1 ~delay:0.1 ~crash:0.5 ~delay_decisions:5
    ~crash_window:3 ()

(* identity fuzz: Corrupt faults are counted and traced without changing
   the protocol's behaviour *)
let id_fuzz ~src:_ ~dst:_ ~seq:_ (j : int) = j

let faulted_run ~seed ~rounds =
  Runner.run
    (Runner.config ~record:true ~scheduler:(Scheduler.fifo ())
       ~faults:(Faults.Plan.make ~seed heavy_faults)
       ~fuzz:id_fuzz
       [| ping_pong ~rounds 0; ping_pong ~rounds 1 |])

let count_trace_faults (o : int T.outcome) =
  List.fold_left
    (fun (d, c, dl, cr) ev ->
      match ev with
      | T.Fault { kind = T.Duplicate; _ } -> (d + 1, c, dl, cr)
      | T.Fault { kind = T.Corrupt; _ } -> (d, c + 1, dl, cr)
      | T.Fault { kind = T.Delay; _ } -> (d, c, dl + 1, cr)
      | T.Fault { kind = T.Crash_restart; _ } -> (d, c, dl, cr + 1)
      | _ -> (d, c, dl, cr))
    (0, 0, 0, 0) o.T.trace

let test_fault_counters_in_det_fields () =
  let labels = List.map fst (Metrics.det_fields Metrics.zero) in
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " in det_fields") true (List.mem l labels))
    [
      "injected_dup";
      "injected_corrupt";
      "injected_delay";
      "injected_crash";
      "timed_out";
      "trial_retries";
    ]

let test_every_injected_fault_accounted () =
  (* sent = delivered + dropped holds with duplicates in flight, and
     each injected-fault counter equals its trace-event count *)
  let some_dup = ref false and some_crash = ref false in
  for seed = 1 to 20 do
    let o = faulted_run ~seed ~rounds:12 in
    let m = o.T.metrics in
    let d, c, dl, cr = count_trace_faults o in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: sent = delivered + dropped" seed)
      (Metrics.sent_total m)
      (Metrics.delivered_total m + Metrics.dropped_total m);
    Alcotest.(check int) (Printf.sprintf "seed %d: dup" seed) d m.Metrics.injected_dup;
    Alcotest.(check int) (Printf.sprintf "seed %d: corrupt" seed) c m.Metrics.injected_corrupt;
    Alcotest.(check int) (Printf.sprintf "seed %d: delay" seed) dl m.Metrics.injected_delay;
    Alcotest.(check int) (Printf.sprintf "seed %d: crash" seed) cr m.Metrics.injected_crash;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: injected_total" seed)
      (d + c + dl + cr) (Metrics.injected_total m);
    if m.Metrics.injected_dup > 0 then some_dup := true;
    if m.Metrics.injected_crash > 0 then some_crash := true
  done;
  Alcotest.(check bool) "duplicates actually injected" true !some_dup;
  Alcotest.(check bool) "crash windows actually opened" true !some_crash

let test_zero_rate_plan_inert () =
  (* a plan with all rates zero must leave the run byte-identical to a
     faultless one *)
  let plain =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ())
         [| ping_pong ~rounds:6 0; ping_pong ~rounds:6 1 |])
  in
  let nulled =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ())
         ~faults:(Faults.Plan.make ~seed:7 Faults.none)
         ~fuzz:id_fuzz
         [| ping_pong ~rounds:6 0; ping_pong ~rounds:6 1 |])
  in
  Alcotest.(check bool) "digests equal" true (digest plain = digest nulled);
  Alcotest.(check int) "nothing injected" 0 (Metrics.injected_total nulled.T.metrics)

let test_timed_out_counted_and_conserved () =
  (* two processes that ping-pong forever: only the fuel watchdog ends
     the run, the tail is dropped (conservation holds), and the
     termination + counter say Timed_out *)
  let forever me =
    let other = 1 - me in
    T.
      {
        start = (fun () -> if me = 0 then [ Send (other, 1) ] else []);
        receive = (fun ~src:_ j -> [ Send (other, j + 1) ]);
        will = (fun () -> None);
      }
  in
  let o =
    Runner.run
      (Runner.config ~scheduler:(Scheduler.fifo ()) ~fuel:50 [| forever 0; forever 1 |])
  in
  let m = o.T.metrics in
  Alcotest.(check bool) "terminated Timed_out" true (o.T.termination = T.Timed_out);
  Alcotest.(check int) "timed_out counted" 1 m.Metrics.timed_out;
  Alcotest.(check int) "sent = delivered + dropped" (Metrics.sent_total m)
    (Metrics.delivered_total m + Metrics.dropped_total m);
  Alcotest.(check bool) "tail dropped" true (Metrics.dropped_total m > 0)

let test_agg_runless_retries () =
  (* Metrics.retries folds into totals without entering per-run
     percentile distributions *)
  let agg = Agg.create () in
  Agg.add agg (Metrics.retries 5);
  Alcotest.(check int) "no runs recorded" 0 (Agg.count agg);
  Alcotest.(check int) "retries in total" 5 (Agg.total agg).Metrics.trial_retries;
  Agg.add agg (metrics_with_sent 10);
  let s = Agg.summary agg in
  Alcotest.(check int) "one run in summary" 1 s.Agg.runs;
  Alcotest.(check (float 1e-9)) "percentiles unpolluted" 10.0 s.Agg.sent.Agg.mean

(* ------------------------------------------------------------------ *)
(* Per-run scheduler freshness (the stateful-reuse bugfix) *)

(* a run whose outcome depends on the scheduler's decision state: three
   destinations, round-robin's cursor position changes who gets the
   first delivery *)
let order_probe () =
  let sender =
    T.
      {
        start = (fun () -> [ Send (1, 0); Send (2, 0) ]);
        receive = (fun ~src:_ _ -> []);
        will = (fun () -> None);
      }
  in
  let judge me =
    let moved = ref false in
    T.
      {
        start = (fun () -> []);
        receive =
          (fun ~src:_ _ ->
            if !moved then []
            else begin
              moved := true;
              [ Move me; Halt ]
            end);
        will = (fun () -> None);
      }
  in
  [| sender; judge 1; judge 2 |]

let test_reused_scheduler_equals_fresh () =
  List.iter
    (fun (name, mk) ->
      let reused = mk () in
      let first = digest (Runner.run (Runner.config ~scheduler:reused (order_probe ()))) in
      let second = digest (Runner.run (Runner.config ~scheduler:reused (order_probe ()))) in
      let fresh = digest (Runner.run (Runner.config ~scheduler:(mk ()) (order_probe ()))) in
      Alcotest.(check bool) (name ^ ": 2nd run on reused scheduler = fresh run") true
        (second = fresh);
      Alcotest.(check bool) (name ^ ": consecutive runs identical") true (first = second))
    [
      ("round_robin", Scheduler.round_robin);
      ("fifo", Scheduler.fifo);
      ( "adaptive_laggard",
        fun () -> Scheduler.adaptive_laggard (Random.State.make [| 5 |]) );
      ("relaxed_stop_after", fun () -> Scheduler.relaxed_stop_after 2);
    ]

let test_relaxed_stop_counter_resets () =
  (* before the reset hook, the second run on a reused relaxed_stop_after
     started with the counter exhausted and delivered nothing; a budget
     of 4 covers the two start signals plus two real messages *)
  let sched = Scheduler.relaxed_stop_after 4 in
  let run () =
    Runner.run (Runner.config ~scheduler:sched [| ping_pong ~rounds:5 0; ping_pong ~rounds:5 1 |])
  in
  let o1 = run () in
  let o2 = run () in
  Alcotest.(check int) "first run delivers 2" 2 o1.T.messages_delivered;
  Alcotest.(check int) "second run delivers 2 again" 2 o2.T.messages_delivered

(* ------------------------------------------------------------------ *)
(* Aggregation *)

let test_agg_totals_and_percentiles () =
  let agg = Agg.create () in
  (* sent counts 10, 20, ..., 100 *)
  List.iter (fun s -> Agg.add agg (metrics_with_sent (10 * s))) (List.init 10 (fun i -> i + 1));
  Alcotest.(check int) "count" 10 (Agg.count agg);
  Alcotest.(check int) "total" 550 (Metrics.sent_total (Agg.total agg));
  let s = Agg.summary agg in
  Alcotest.(check int) "runs" 10 s.Agg.runs;
  Alcotest.(check (float 1e-9)) "mean" 55.0 s.Agg.sent.Agg.mean;
  (* nearest-rank on ((len-1)*q/100): p50 of 10..100 is index 4 = 50 *)
  Alcotest.(check int) "p50" 50 s.Agg.sent.Agg.p50;
  Alcotest.(check int) "p90" 90 s.Agg.sent.Agg.p90;
  Alcotest.(check int) "max" 100 s.Agg.sent.Agg.max

let test_agg_order_independent_totals () =
  let a = Agg.create () and b = Agg.create () in
  let ms = List.init 7 (fun i -> metrics_with_sent (i * i)) in
  List.iter (Agg.add a) ms;
  List.iter (Agg.add b) (List.rev ms);
  Alcotest.(check string) "totals commute"
    (Metrics.det_repr (Agg.total a))
    (Metrics.det_repr (Agg.total b));
  (* summaries sort per-run values, so they also agree *)
  Alcotest.(check string) "summaries agree" (Agg.summary_repr (Agg.summary a))
    (Agg.summary_repr (Agg.summary b))

(* ------------------------------------------------------------------ *)
(* Hist: the bounded-memory histogram under Agg's percentiles *)

module Hist = Obs.Hist

(* the exact nearest-rank reference Hist must match (below the cap) or
   bracket within one bucket (above it) *)
let exact_pct values q =
  let a = Array.of_list values in
  Array.sort Int.compare a;
  a.((Array.length a - 1) * q / 100)

let hist_of values =
  let h = Hist.create () in
  List.iter (Hist.add h) values;
  h

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check int) "p50" 0 (Hist.percentile h 50);
  Alcotest.(check int) "max" 0 (Hist.max_value h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Hist.mean h)

let test_hist_bucket_resolution () =
  (* documented scheme: unit buckets through 255, then 16 sub-buckets
     per power-of-two octave (relative width 2^-4 = 6.25%) *)
  Alcotest.(check (pair int int)) "unit bucket" (255, 255) (Hist.bucket_bounds 255);
  Alcotest.(check (pair int int)) "first octave bucket" (256, 271) (Hist.bucket_bounds 256);
  Alcotest.(check (pair int int)) "2^12 bucket" (4096, 4351) (Hist.bucket_bounds 4096);
  List.iter
    (fun v ->
      let lo, hi = Hist.bucket_bounds v in
      Alcotest.(check bool) "contains v" true (lo <= v && v <= hi);
      Alcotest.(check bool)
        (Printf.sprintf "width <= 6.25%% at %d" v)
        true
        (v < 256 || hi - lo + 1 <= (v / 16) + 1))
    [ 0; 1; 255; 256; 300; 1023; 1024; 65535; 1_000_000; max_int ]

let prop_hist_exact_below_cap =
  QCheck.Test.make ~count:100 ~name:"hist percentiles exact below the cap"
    QCheck.(list_of_size Gen.(int_range 1 512) (int_bound 1_000_000))
    (fun values ->
      let h = hist_of values in
      Hist.is_exact h
      && List.for_all
           (fun q -> Hist.percentile h q = exact_pct values q)
           [ 0; 10; 50; 90; 99; 100 ])

let prop_hist_within_one_bucket =
  QCheck.Test.make ~count:50 ~name:"hist percentiles within one bucket beyond the cap"
    QCheck.(list_of_size Gen.(int_range 513 2000) (int_bound 1_000_000))
    (fun values ->
      let h = hist_of values in
      (not (Hist.is_exact h))
      && List.for_all
           (fun q ->
             let approx = Hist.percentile h q and exact = exact_pct values q in
             (* same log-bucket, and never below the exact answer's
                bucket floor *)
             Hist.bucket_bounds approx = Hist.bucket_bounds exact)
           [ 0; 10; 50; 90; 99; 100 ]
      && Hist.max_value h = exact_pct values 100
      && abs_float
           (Hist.mean h
           -. float_of_int (List.fold_left ( + ) 0 values)
              /. float_of_int (List.length values))
         < 1e-9)

let prop_hist_merge_equals_concat =
  (* shard-merge contract: merging per-shard histograms (in any split)
     reports exactly what one histogram over the whole stream reports *)
  QCheck.Test.make ~count:100 ~name:"hist merge equals single histogram"
    QCheck.(pair (list_of_size Gen.(int_range 0 700) (int_bound 100_000))
              (list_of_size Gen.(int_range 0 700) (int_bound 100_000)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] || ys <> []);
      let whole = hist_of (xs @ ys) in
      let dst = hist_of xs in
      Hist.merge_into ~dst (hist_of ys);
      Hist.count dst = Hist.count whole
      && Hist.max_value dst = Hist.max_value whole
      && Hist.mean dst = Hist.mean whole
      && List.for_all
           (fun q -> Hist.percentile dst q = Hist.percentile whole q)
           [ 0; 10; 50; 90; 99; 100 ])

let prop_hist_reset_equals_fresh =
  (* scrub-and-reuse (DESIGN.md section 17): a reset histogram is
     indistinguishable from a newly created one, whatever it held *)
  QCheck.Test.make ~count:100 ~name:"hist reset = fresh hist"
    QCheck.(pair (list_of_size Gen.(int_range 0 700) (int_bound 1_000_000))
              (list_of_size Gen.(int_range 0 700) (int_bound 1_000_000)))
    (fun (xs, ys) ->
      let h = hist_of xs in
      Hist.reset h;
      List.iter (Hist.add h) ys;
      let fresh = hist_of ys in
      Hist.count h = Hist.count fresh
      && Hist.max_value h = Hist.max_value fresh
      && Hist.mean h = Hist.mean fresh
      && Hist.is_exact h = Hist.is_exact fresh
      && List.for_all
           (fun q -> Hist.percentile h q = Hist.percentile fresh q)
           [ 0; 10; 50; 90; 99; 100 ])

let prop_agg_reset_equals_fresh =
  QCheck.Test.make ~count:60 ~name:"agg reset = fresh agg"
    QCheck.(pair (list_of_size Gen.(int_range 0 40) (int_bound 5_000))
              (list_of_size Gen.(int_range 0 40) (int_bound 5_000)))
    (fun (xs, ys) ->
      let a = Agg.create () in
      List.iter (fun s -> Agg.add a (metrics_with_sent s)) xs;
      Agg.reset a;
      let b = Agg.create () in
      List.iter (fun s -> Agg.add a (metrics_with_sent s)) ys;
      List.iter (fun s -> Agg.add b (metrics_with_sent s)) ys;
      Agg.count a = Agg.count b
      && String.equal (Metrics.det_repr (Agg.total a)) (Metrics.det_repr (Agg.total b))
      && String.equal (Agg.summary_repr (Agg.summary a))
           (Agg.summary_repr (Agg.summary b)))

let test_hist_order_independent_beyond_cap () =
  let values = List.init 1500 (fun i -> (i * 7919) mod 50_000) in
  let a = hist_of values and b = hist_of (List.rev values) in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "p%d order-independent" q)
        (Hist.percentile a q) (Hist.percentile b q))
    [ 0; 50; 90; 99; 100 ]

let test_agg_merge_into () =
  (* Agg.merge_into = replaying every add, including runless records *)
  let ms = List.init 20 (fun i -> metrics_with_sent (i * 13)) @ [ Metrics.retries 3 ] in
  let whole = Agg.create () in
  List.iter (Agg.add whole) ms;
  let left = Agg.create () and right = Agg.create () in
  List.iteri (fun i m -> Agg.add (if i mod 2 = 0 then left else right) m) ms;
  Agg.merge_into ~dst:left right;
  Alcotest.(check int) "count" (Agg.count whole) (Agg.count left);
  Alcotest.(check string) "totals"
    (Metrics.det_repr (Agg.total whole))
    (Metrics.det_repr (Agg.total left));
  Alcotest.(check string) "summaries" (Agg.summary_repr (Agg.summary whole))
    (Agg.summary_repr (Agg.summary left))

(* ------------------------------------------------------------------ *)
(* Complexity checker *)

let point ~label ~n ~stages ~c ~messages ~bound =
  { Complexity.label; n; stages; c; messages; bound }

let test_complexity_ok () =
  let fit =
    Complexity.fit
      [
        point ~label:"a" ~n:5 ~stages:1 ~c:10 ~messages:400 ~bound:1000;
        point ~label:"b" ~n:7 ~stages:1 ~c:14 ~messages:900 ~bound:2500;
        point ~label:"c" ~n:5 ~stages:2 ~c:10 ~messages:800 ~bound:2000;
      ]
  in
  Alcotest.(check bool) "no violations" true (Complexity.ok fit);
  Alcotest.(check int) "points" 3 fit.Complexity.points;
  Alcotest.(check bool) "coefficient positive" true (fit.Complexity.coeff > 0.0);
  Alcotest.(check bool) "max ratio < 1" true (fit.Complexity.max_ratio < 1.0)

let test_complexity_violation () =
  let fit =
    Complexity.fit
      [
        point ~label:"fine" ~n:5 ~stages:1 ~c:10 ~messages:400 ~bound:1000;
        point ~label:"hot" ~n:5 ~stages:1 ~c:10 ~messages:1500 ~bound:1000;
      ]
  in
  Alcotest.(check bool) "flagged" false (Complexity.ok fit);
  Alcotest.(check (list string)) "the violating label" [ "hot" ] fit.Complexity.violations;
  Alcotest.(check bool) "ratio reflects it" true (fit.Complexity.max_ratio > 1.0)

let test_complexity_empty () =
  let fit = Complexity.fit [] in
  Alcotest.(check bool) "vacuously ok" true (Complexity.ok fit);
  Alcotest.(check int) "no points" 0 fit.Complexity.points

(* ------------------------------------------------------------------ *)
(* JSON emitter *)

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" {|"a\"b\\c"|}
    (Json.to_string (Json.String {|a"b\c|}));
  Alcotest.(check string) "newline and tab" {|"a\nb\tc"|}
    (Json.to_string (Json.String "a\nb\tc"));
  Alcotest.(check string) "control char" {|"\u0001"|}
    (Json.to_string (Json.String "\001"))

let test_json_structure () =
  let doc =
    Json.Obj
      [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("ok", Json.Bool true); ("z", Json.Null) ]
  in
  Alcotest.(check string) "pretty object"
    "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"ok\": true,\n  \"z\": null\n}"
    (Json.to_string doc);
  Alcotest.(check string) "empty object" "{}" (Json.to_string (Json.Obj []));
  Alcotest.(check string) "empty list" "[]" (Json.to_string (Json.List []))

let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_parse_roundtrip () =
  (* the perf gate reads BENCH_smoke.json back: parse(print(v)) = v for
     every shape the emitter produces *)
  let doc =
    Json.Obj
      [
        ("budget", Json.String "smoke");
        ("jobs", Json.Int 4);
        ("total_wall_clock_s", Json.Float 12.5);
        ("escaped", Json.String "a\"b\\c\nd\te");
        ("unicode", Json.String "Theorem 4.1 \xe2\x80\x94 exact");
        ( "experiments",
          Json.Obj
            [
              ("e1", Json.Obj [ ("wall_clock_s", Json.Float 7.25); ("ok", Json.Bool true) ]);
              ("e2", Json.Obj [ ("rows", Json.List [ Json.Null; Json.Int (-3) ]) ]);
            ] );
        ("micro", Json.Obj [ ("gf/mul", Json.Float 2.0e-9) ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (Json.of_string (Json.to_string doc) = doc);
  (* escapes decode to the original characters *)
  Alcotest.(check bool) "escape decode" true
    (Json.of_string {|"a\"b\\c\nd\teA"|} = Json.String "a\"b\\c\nd\teA")

let test_json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (fails "{} x");
  Alcotest.(check bool) "unterminated string" true (fails {|"abc|});
  Alcotest.(check bool) "bare word" true (fails "xyz");
  Alcotest.(check bool) "missing colon" true (fails {|{"a" 1}|});
  Alcotest.(check bool) "missing bracket" true (fails "[1, 2")

let test_json_accessors () =
  let doc = Json.of_string {|{"a": {"b": 3}, "xs": [1.5, 2], "s": "hi"}|} in
  Alcotest.(check (option int)) "nested int" (Some 3)
    Option.(bind (Json.member "a" doc) (Json.member "b") |> Fun.flip bind Json.to_int_opt);
  Alcotest.(check bool) "int widens to float" true
    (Option.bind (Json.member "a" doc) (Json.member "b")
     |> Fun.flip Option.bind Json.to_float_opt
    = Some 3.0);
  Alcotest.(check (option string)) "string" (Some "hi")
    (Option.bind (Json.member "s" doc) Json.to_string_opt);
  Alcotest.(check bool) "missing member" true (Json.member "zz" doc = None)

let test_metrics_json_split () =
  let s = Json.to_string (Metrics.to_json sample_metrics) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "deterministic subtree" true (contains {|"deterministic"|} s);
  Alcotest.(check bool) "environmental subtree" true (contains {|"environmental"|} s);
  Alcotest.(check bool) "wall clock in environmental only" true
    (contains {|"wall_clock_s"|} s)

(* ------------------------------------------------------------------ *)
(* Hardened of_file (ISSUE: durable-runs PR, satellite 1): empty,
   truncated and oversized files must fail with a Parse_error naming
   the path — never End_of_file or a silent partial read. *)

let with_file content f =
  let path = Filename.temp_file "obsjson" ".json" in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let expect_parse_error name path thunk =
  match thunk () with
  | _ -> Alcotest.fail (name ^ ": expected Parse_error")
  | exception Json.Parse_error msg ->
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (name ^ ": message names the file") true (contains path msg)

let test_of_file_round_trip () =
  let doc = Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.String "x" ]) ] in
  with_file (Json.to_string doc) (fun path ->
      Alcotest.(check bool) "round-trips" true (Json.of_file path = doc))

let test_of_file_empty () =
  with_file "" (fun path ->
      expect_parse_error "empty file" path (fun () -> Json.of_file path))

let test_of_file_truncated () =
  with_file {|{"a": [1, 2|} (fun path ->
      expect_parse_error "truncated document" path (fun () -> Json.of_file path))

let test_of_file_oversized () =
  with_file (Json.to_string (Json.String (String.make 256 'x'))) (fun path ->
      expect_parse_error "over max_bytes" path (fun () ->
          Json.of_file ~max_bytes:16 path);
      (* the default cap is far above any checkpoint document *)
      Alcotest.(check bool) "default cap generous" true (Json.max_file_bytes >= 1 lsl 20))

let test_of_file_missing () =
  match Json.of_file "/nonexistent/obsjson.json" with
  | _ -> Alcotest.fail "missing file parsed"
  | exception Sys_error _ -> ()

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "merge zero neutral" `Quick test_merge_zero_neutral;
          Alcotest.test_case "merge sums fields" `Quick test_merge_sums;
          Alcotest.test_case "class index" `Quick test_class_index;
        ] );
      ( "runner-metrics",
        [
          Alcotest.test_case "matches outcome counters" `Quick
            test_runner_metrics_match_outcome;
          Alcotest.test_case "mediator classes" `Quick test_runner_metrics_mediator_classes;
          Alcotest.test_case "self class" `Quick test_runner_metrics_self_class;
          Alcotest.test_case "dropped on relaxed stop" `Quick test_runner_metrics_dropped;
        ] );
      ( "scheduler-exceptions",
        [
          Alcotest.test_case "assert failure propagates" `Quick
            test_fatal_scheduler_exception_propagates;
          Alcotest.test_case "stack overflow propagates" `Quick
            test_fatal_stack_overflow_propagates;
          Alcotest.test_case "non-fatal counted + fallback" `Quick
            test_nonfatal_scheduler_exception_counted;
          Alcotest.test_case "invalid decision counted" `Quick test_invalid_decision_counted;
          Alcotest.test_case "starvation counted" `Quick test_starvation_counted;
        ] );
      ( "fault-accounting",
        [
          Alcotest.test_case "fault counters in det_fields" `Quick
            test_fault_counters_in_det_fields;
          Alcotest.test_case "every injected fault accounted" `Quick
            test_every_injected_fault_accounted;
          Alcotest.test_case "zero-rate plan is inert" `Quick test_zero_rate_plan_inert;
          Alcotest.test_case "timed_out counted + conservation" `Quick
            test_timed_out_counted_and_conserved;
          Alcotest.test_case "runless retries record" `Quick test_agg_runless_retries;
        ] );
      ( "scheduler-freshness",
        [
          Alcotest.test_case "reused scheduler = fresh per run" `Quick
            test_reused_scheduler_equals_fresh;
          Alcotest.test_case "relaxed stop counter resets" `Quick
            test_relaxed_stop_counter_resets;
        ] );
      ( "agg",
        [
          Alcotest.test_case "totals and percentiles" `Quick test_agg_totals_and_percentiles;
          Alcotest.test_case "order-independent totals" `Quick
            test_agg_order_independent_totals;
          Alcotest.test_case "merge_into equals replay" `Quick test_agg_merge_into;
        ] );
      ( "hist",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "bucket resolution" `Quick test_hist_bucket_resolution;
          Alcotest.test_case "order-independent beyond cap" `Quick
            test_hist_order_independent_beyond_cap;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~long:false)
            [
              prop_hist_exact_below_cap;
              prop_hist_within_one_bucket;
              prop_hist_merge_equals_concat;
              prop_hist_reset_equals_fresh;
              prop_agg_reset_equals_fresh;
            ] );
      ( "complexity",
        [
          Alcotest.test_case "within bounds" `Quick test_complexity_ok;
          Alcotest.test_case "violation flagged" `Quick test_complexity_violation;
          Alcotest.test_case "empty fit" `Quick test_complexity_empty;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "structure" `Quick test_json_structure;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "metrics split" `Quick test_metrics_json_split;
        ] );
      ( "of-file",
        [
          Alcotest.test_case "round trip" `Quick test_of_file_round_trip;
          Alcotest.test_case "empty file" `Quick test_of_file_empty;
          Alcotest.test_case "truncated document" `Quick test_of_file_truncated;
          Alcotest.test_case "size cap" `Quick test_of_file_oversized;
          Alcotest.test_case "missing file" `Quick test_of_file_missing;
        ] );
    ]
