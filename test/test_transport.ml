(* The transport abstraction + live backend.

   The headline contract: a live run — players hosted on effects
   fibers, the run itself Runner.run over them — is the SAME pure
   function of the seed as a simulator run. Checked here:

   - qcheck: randomly generated protocols produce byte-identical
     outcome reprs (termination, moves, accounting, deterministic
     metrics, trace digest) on sim and live, across scheduler families;
   - the acceptance harness: three protocol families (toy quorum vote,
     E1-small mediator game, chaos fault config) x >= 100 seeds with
     identical outcome distributions and metrics digests (the LIVE
     experiment table, same code path as `make live-check`);
   - teardown: sent = delivered + dropped holds when a watchdog ends a
     live run, fault accounting matches the simulator per seed, and a
     direct-style program still blocked in recv is cancelled;
   - the session engine (the path `ctmed serve` takes): every session's
     outcome is unchanged by the backend, the shard count and the
     domain count;
   - direct-style fiber programs (Live.process_of) run on BOTH
     backends and reproduce each other byte-for-byte. *)

module Backend = Transport.Backend
module Live = Transport.Live
module Diff = Transport.Differential
module Runner = Sim.Runner
module Scheduler = Sim.Scheduler
module T = Sim.Types
module Pool = Parallel.Pool
module Common = Experiments.Common

let show = string_of_int
let repr o = Diff.outcome_repr ~show o

(* ------------------------------------------------------------------ *)
(* Random protocols: a process array generated from a seed — random
   fan-out on start, random forward/move/halt reactions, a send budget
   so every run terminates. Deterministic per construction: each player
   draws from its own (seed, pid) stream in activation order, and both
   backends replay the same activation order on the same seed. *)

let random_protocol ~n ~seed () =
  Array.init n (fun pid ->
      let rng = Random.State.make [| 0xBEEF; seed; pid |] in
      let budget = ref (2 + Random.State.int rng 4) in
      let moved = ref false in
      let emit v =
        let fx = ref [] in
        if !budget > 0 then begin
          let fanout = 1 + Random.State.int rng 2 in
          for _ = 1 to fanout do
            if !budget > 0 then begin
              decr budget;
              fx := T.Send (Random.State.int rng n, v + 1) :: !fx
            end
          done
        end;
        if (not !moved) && Random.State.int rng 3 = 0 then begin
          moved := true;
          fx := T.Move (v land 7) :: !fx
        end;
        if !budget = 0 && Random.State.int rng 2 = 0 then fx := T.Halt :: !fx;
        List.rev !fx
      in
      {
        T.start = (fun () -> emit pid);
        receive = (fun ~src:_ m -> emit m);
        will = (fun () -> if pid land 1 = 0 then Some pid else None);
      })

let scheduler_of_variant v seed =
  match v mod 4 with
  | 0 -> Scheduler.fifo ()
  | 1 -> Scheduler.lifo ()
  | 2 -> Scheduler.round_robin ()
  | _ -> Scheduler.random_seeded seed

let prop_random_protocols_identical =
  QCheck.Test.make ~count:60 ~name:"random protocols: sim repr = live repr"
    QCheck.(triple (int_bound 500) (int_bound 3) (int_bound 2))
    (fun (seed, sched, n_extra) ->
      let n = 2 + n_extra in
      let cfg () =
        Runner.config
          ~scheduler:(scheduler_of_variant sched seed)
          (random_protocol ~n ~seed ())
      in
      String.equal (repr (Runner.run (cfg ()))) (repr (Live.run (cfg ()))))

let prop_random_protocols_with_faults =
  (* every fault kind through the live path, including corrupt with a
     payload fuzz hook on int messages *)
  let faults =
    Faults.make ~dup:0.15 ~corrupt:0.15 ~delay:0.2 ~crash:0.3 ~delay_decisions:12
      ~crash_window:6 ()
  in
  QCheck.Test.make ~count:60 ~name:"random protocols under faults: sim repr = live repr"
    QCheck.(pair (int_bound 500) (int_bound 3))
    (fun (seed, sched) ->
      let cfg () =
        Runner.config
          ~scheduler:(scheduler_of_variant sched seed)
          ~faults:(Faults.Plan.make ~seed faults)
          ~fuzz:(fun ~src:_ ~dst:_ ~seq:_ m -> m + 1000)
          (random_protocol ~n:4 ~seed ())
      in
      String.equal (repr (Runner.run (cfg ()))) (repr (Live.run (cfg ()))))

let prop_relaxed_identical =
  (* the Stop_delivery / Deadlocked path through the live loop *)
  QCheck.Test.make ~count:40 ~name:"relaxed stop: sim repr = live repr"
    QCheck.(pair (int_bound 500) (int_bound 12))
    (fun (seed, stop_after) ->
      let cfg () =
        Runner.config
          ~scheduler:(Scheduler.relaxed_stop_after stop_after)
          (random_protocol ~n:3 ~seed ())
      in
      String.equal (repr (Runner.run (cfg ()))) (repr (Live.run (cfg ()))))

(* ------------------------------------------------------------------ *)
(* Every branch of the decision loop on both backends, seed by seed,
   with and without a fault plan: a scheduler that raises a non-fatal
   exception, one that names an unknown id, a Stop_delivery from a
   non-relaxed scheduler, a max_steps cutoff and a fuel watchdog. Each
   branch must actually fire on some seed, so the comparison has teeth. *)

let newest pending = T.Deliver (Sim.Pending_set.newest pending).T.id

let test_loop_branches_identical () =
  let faults =
    Faults.make ~dup:0.15 ~corrupt:0.15 ~delay:0.2 ~crash:0.3 ~delay_decisions:12
      ~crash_window:6 ()
  in
  let custom name f _seed = Scheduler.custom ~name ~relaxed:false f in
  let branches =
    [
      ( "non-fatal exception",
        custom "flaky" (fun ~step ~history:_ ~pending ->
            if step mod 3 = 0 then failwith "flaky";
            newest pending),
        None,
        None,
        fun (m : Obs.Metrics.t) _ -> m.scheduler_exns > 0 );
      ( "unknown id",
        custom "bogus" (fun ~step ~history:_ ~pending ->
            if step mod 2 = 0 then T.Deliver (-42) else newest pending),
        None,
        None,
        fun m _ -> m.invalid_decisions > 0 );
      ( "non-relaxed stop",
        custom "stopper" (fun ~step ~history:_ ~pending ->
            if step mod 4 = 1 then T.Stop_delivery else newest pending),
        None,
        None,
        fun m _ -> m.invalid_decisions > 0 );
      ("max_steps cutoff", Scheduler.random_seeded, Some 6, None, fun _ t -> t = T.Cutoff);
      ("fuel watchdog", Scheduler.random_seeded, None, Some 6, fun m _ -> m.timed_out > 0);
    ]
  in
  List.iter
    (fun (name, scheduler, max_steps, fuel, fired) ->
      List.iter
        (fun faulted ->
          let name = if faulted then name ^ " +faults" else name in
          let hits = ref 0 and drops = ref 0 in
          for seed = 0 to 29 do
            let cfg () =
              let faults = if faulted then Some (Faults.Plan.make ~seed faults) else None in
              let fuzz = if faulted then Some (fun ~src:_ ~dst:_ ~seq:_ m -> m + 1000) else None in
              Runner.config ?faults ?fuzz ?max_steps ?fuel ~scheduler:(scheduler seed)
                (random_protocol ~n:4 ~seed ())
            in
            let o_sim = Runner.run (cfg ()) and o_live = Live.run (cfg ()) in
            let check what get =
              Alcotest.(check string) (Printf.sprintf "%s seed %d: %s" name seed what)
                (get o_sim) (get o_live)
            in
            check "repr" repr;
            check "scheduler_exns" (fun o -> string_of_int o.T.metrics.scheduler_exns);
            check "invalid_decisions" (fun o -> string_of_int o.T.metrics.invalid_decisions);
            check "timed_out" (fun o -> string_of_int o.T.metrics.timed_out);
            if fired o_sim.T.metrics o_sim.T.termination then incr hits;
            (* a watchdog ends a live run from outside the protocol:
               whatever is still pending is dropped, none of it lost *)
            if Option.is_some fuel then begin
              let m = o_live.T.metrics in
              Alcotest.(check int)
                (Printf.sprintf "%s seed %d: sent = delivered + dropped" name seed)
                (Obs.Metrics.sent_total m)
                (Obs.Metrics.delivered_total m + Obs.Metrics.dropped_total m);
              if Obs.Metrics.dropped_total m > 0 then incr drops
            end
          done;
          Alcotest.(check bool) (name ^ ": branch fired") true (!hits > 0);
          if Option.is_some fuel then
            Alcotest.(check bool) (name ^ ": dropped on some seed") true (!drops > 0))
        [ false; true ])
    branches

(* ------------------------------------------------------------------ *)
(* Session-state recycling (DESIGN.md section 17): a batch of sessions
   run through ONE recycled Runner.Slot must reproduce, outcome by
   outcome, the same batch run fresh — across scheduler families, fault
   plans with payload fuzz, the relaxed stop path, and both backends.
   The repr covers termination, moves, accounting, deterministic
   metrics and the trace digest, so any stale state leaking across a
   reset shows up byte-for-byte. *)

let prop_recycled_equals_fresh =
  QCheck.Test.make ~count:40
    ~name:"slot recycling: recycled reprs = fresh reprs (both backends)"
    QCheck.(quad (int_bound 500) (int_bound 3) (int_bound 2) bool)
    (fun (seed0, sched, variant, live) ->
      let cfg seed =
        let scheduler =
          if variant = 2 then Scheduler.relaxed_stop_after (seed mod 13)
          else scheduler_of_variant sched seed
        in
        let faults =
          if variant = 1 then
            Some
              (Faults.Plan.make ~seed
                 (Faults.make ~dup:0.15 ~corrupt:0.1 ~delay:0.2 ~crash:0.3
                    ~delay_decisions:12 ~crash_window:6 ()))
          else None
        in
        let fuzz =
          if variant = 1 then Some (fun ~src:_ ~dst:_ ~seq:_ m -> m + 1000) else None
        in
        Runner.config ~scheduler ?faults ?fuzz (random_protocol ~n:4 ~seed ())
      in
      let seeds = List.init 6 (fun i -> seed0 + i) in
      let fresh =
        List.map
          (fun seed ->
            if live then repr (Live.run (cfg seed)) else repr (Runner.run (cfg seed)))
          seeds
      in
      let slot = Runner.Slot.create () in
      let recycled =
        List.map
          (fun seed ->
            if live then repr (Live.run ~slot (cfg seed))
            else repr (Runner.run ~slot (cfg seed)))
          seeds
      in
      List.for_all2 String.equal fresh recycled)

let test_slot_reuse_across_arities () =
  let slot = Runner.Slot.create () in
  let cfg ~n seed =
    Runner.config ~scheduler:(Scheduler.random_seeded seed) (random_protocol ~n ~seed ())
  in
  Alcotest.(check bool) "cold slot" false (Runner.Slot.is_warm slot);
  let r1 = repr (Runner.run ~slot (cfg ~n:3 7)) in
  Alcotest.(check bool) "warm after a run" true (Runner.Slot.is_warm slot);
  Alcotest.(check string) "n=3 recycled = fresh" (repr (Runner.run (cfg ~n:3 7))) r1;
  (* arity change: the slot falls back to a fresh core, still correct *)
  let r2 = repr (Runner.run ~slot (cfg ~n:5 8)) in
  Alcotest.(check string) "n=5 through an n=3 slot" (repr (Runner.run (cfg ~n:5 8))) r2;
  (* and back down again, now recycling the n=5 core away *)
  let r3 = repr (Runner.run ~slot (cfg ~n:3 9)) in
  Alcotest.(check string) "n=3 again" (repr (Runner.run (cfg ~n:3 9))) r3;
  Runner.Slot.clear slot;
  Alcotest.(check bool) "cleared" false (Runner.Slot.is_warm slot)

(* ------------------------------------------------------------------ *)
(* The acceptance harness: 3 families x >= 100 seeds, identical
   distributions and metrics digests — the LIVE experiment table is the
   enforcement point shared with `make live-check` / `ctmed experiment
   live`. Smoke budget still floors every family at 100 seeds. *)

let test_differential_families () =
  Pool.with_pool ~domains:4 (fun pool ->
      let ctx = Common.ctx ~pool Common.Smoke in
      let table = Experiments.Livediff.run ctx in
      Alcotest.(check int) "three families" 3 (List.length table.Common.rows);
      List.iter
        (fun row ->
          match row with
          | [ family; seeds; mismatches; _; _; _; status ] ->
              Alcotest.(check bool)
                (family ^ ": >= 100 seeds")
                true
                (int_of_string seeds >= 100);
              Alcotest.(check string) (family ^ ": no mismatches") "0" mismatches;
              Alcotest.(check string) (family ^ ": ok") "ok" status
          | _ -> Alcotest.fail "unexpected row shape")
        table.Common.rows;
      Alcotest.(check bool)
        "verdict passes" true
        (String.length table.Common.verdict >= 4
        && String.sub table.Common.verdict 0 4 = "PASS"))

let test_differential_report_fields () =
  (* the report itself: distributions equal, digests equal, mismatch
     list empty — and a deliberately broken pairing is caught *)
  let mk seed =
    Runner.config
      ~scheduler:(Scheduler.random_seeded seed)
      (random_protocol ~n:4 ~seed ())
  in
  let r = Diff.run ~show ~seeds:(0, 120) mk in
  Alcotest.(check bool) "ok" true (Diff.ok r);
  Alcotest.(check int) "no mismatches" 0 (List.length r.Diff.mismatches);
  Alcotest.(check bool) "distributions equal" true (r.Diff.dist_a = r.Diff.dist_b);
  Alcotest.(check string)
    "metrics digests equal"
    (Obs.Metrics.det_repr r.Diff.metrics_a)
    (Obs.Metrics.det_repr r.Diff.metrics_b);
  (* a seed-shifted pairing must be flagged: the harness can actually
     see differences *)
  let shifted = ref false in
  let r_bad =
    Diff.run ~show ~seeds:(0, 20) (fun seed ->
        let seed = if !shifted then seed + 1 else seed in
        shifted := not !shifted;
        mk seed)
  in
  Alcotest.(check bool) "shifted pairing detected" false (Diff.ok r_bad)

(* ------------------------------------------------------------------ *)
(* Fault accounting on the live path *)

let test_crash_window_conservation_matches_sim () =
  (* crash-restart windows on the live path: per-kind injected counters
     and conservation identical to the simulator, seed by seed *)
  let faults = Faults.make ~crash:0.5 ~crash_window:8 () in
  for seed = 0 to 24 do
    let cfg () =
      Runner.config
        ~scheduler:(Scheduler.random_seeded seed)
        ~faults:(Faults.Plan.make ~seed faults)
        (random_protocol ~n:4 ~seed ())
    in
    let o_sim = Runner.run (cfg ()) in
    let o_live = Live.run (cfg ()) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d identical" seed)
      (repr o_sim) (repr o_live);
    let m = o_live.T.metrics in
    Alcotest.(check int)
      (Printf.sprintf "seed %d conservation" seed)
      (Obs.Metrics.sent_total m)
      (Obs.Metrics.delivered_total m + Obs.Metrics.dropped_total m)
  done

(* ------------------------------------------------------------------ *)
(* Serving: `ctmed serve` runs every session through Engine.run *)

let test_serve_deterministic_across_shapes () =
  (* with the full outcome repr as the profile, every served session's
     trace is a key of the profile table, so the table must list exactly
     the sequential Runner.run of each seed, whatever the backend, the
     shard count and -j (the inflight values passed are inert) *)
  let sessions = 13 in
  let make ~seed =
    Runner.config ~scheduler:(Scheduler.random_seeded seed)
      (random_protocol ~n:4 ~seed ())
  in
  let profile = Diff.outcome_repr ~show in
  let solo = List.init sessions (fun seed -> repr (Runner.run (make ~seed))) in
  let reference = List.map (fun r -> (r, 1)) (List.sort_uniq String.compare solo) in
  Alcotest.(check int) "one distinct repr per seed" sessions (List.length reference);
  let reference_digest =
    Engine.det_repr (Engine.run ~recycle:false ~sessions ~make ~profile ())
  in
  List.iter
    (fun (backend, inflight, shards, domains) ->
      let stats =
        Pool.with_pool ~domains (fun pool ->
            Engine.run ~backend ~shards ~inflight ~pool ~sessions ~make ~profile ())
      in
      let shape =
        Printf.sprintf "%s batch=%d shards=%d j=%d" (Backend.to_string backend) inflight
          shards domains
      in
      Alcotest.(check (list (pair string int))) (shape ^ ": per-seed outcomes") reference
        stats.Engine.profiles;
      Alcotest.(check string) (shape ^ ": digest") reference_digest (Engine.det_repr stats))
    ((Backend.Sim, 16, 3, 2)
    :: List.concat_map
         (fun inflight ->
           List.concat_map
             (fun shards -> List.map (fun j -> (Backend.Live, inflight, shards, j)) [ 1; 2 ])
             [ 1; 3 ])
         [ 1; 4; 13 ])

(* ------------------------------------------------------------------ *)
(* Direct-style fiber programs on both backends *)

let fiber_pair () =
  let echo =
    Live.process_of (fun api ->
        let src, m = api.Live.recv () in
        api.Live.send src (m * 2);
        api.Live.move 1)
  in
  let caller =
    Live.process_of
      ~will:(fun () -> Some 9)
      (fun api ->
        api.Live.send 0 21;
        let _, m = api.Live.recv () in
        api.Live.move m)
  in
  [| echo; caller |]

let test_fiber_programs_both_backends () =
  for seed = 0 to 19 do
    let cfg () =
      Runner.config ~scheduler:(Scheduler.random_seeded seed) (fiber_pair ())
    in
    let o_sim = Runner.run (cfg ()) in
    let o_live = Live.run (cfg ()) in
    Alcotest.(check string) (Printf.sprintf "seed %d" seed) (repr o_sim) (repr o_live);
    Alcotest.(check (option int)) "echo moved" (Some 1) o_sim.T.moves.(0);
    Alcotest.(check (option int)) "caller moved 42" (Some 42) o_sim.T.moves.(1)
  done

let test_fiber_program_will_and_halt () =
  (* a direct program that returns halts; its will is consulted when it
     never moved — cover through a relaxed stop before any delivery *)
  let cfg () =
    Runner.config ~scheduler:(Scheduler.relaxed_stop_after 0) (fiber_pair ())
  in
  let o_sim = Runner.run (cfg ()) in
  let o_live = Live.run (cfg ()) in
  Alcotest.(check string) "stopped reprs equal" (repr o_sim) (repr o_live);
  Alcotest.(check bool) "deadlocked" true (o_sim.T.termination = T.Deadlocked);
  let willed = Runner.moves_with_wills (fiber_pair ()) o_sim in
  Alcotest.(check (option int)) "caller's will applies" (Some 9) willed.(1)

let test_fiber_program_cancelled_at_teardown () =
  (* two direct-style programs ping-pong forever; the fuel watchdog ends
     the run with both blocked in recv, and Live.run must unwind each of
     them with Cancelled *)
  let cancelled = ref 0 in
  let pinger peer =
    Live.process_of (fun api ->
        try
          api.Live.send peer 0;
          while true do
            let _, m = api.Live.recv () in
            api.Live.send peer (m + 1)
          done
        with Live.Cancelled as e ->
          incr cancelled;
          raise e)
  in
  let o =
    Live.run
      (Runner.config ~fuel:25 ~scheduler:(Scheduler.fifo ()) [| pinger 1; pinger 0 |])
  in
  Alcotest.(check bool) "timed out" true (o.T.termination = T.Timed_out);
  Alcotest.(check int) "both blocked programs cancelled" 2 !cancelled

(* ------------------------------------------------------------------ *)
(* The sharded throughput engine: its aggregate digest is a pure
   function of (sessions, workload seeds) — invariant under shard
   count, pool size and backend (the inflight values passed are
   inert). *)

let toy_make ~seed = Engine.Toy.config ~seed ()

let engine_run ?backend ?shards ?inflight ?recycle ?pool ~sessions () =
  Engine.det_repr
    (Engine.run ?backend ?shards ?inflight ?recycle ?pool ~sessions ~make:toy_make
       ~profile:Engine.Toy.profile ())

let test_engine_invariant_under_shape () =
  let sessions = 600 in
  let reference = engine_run ~sessions () in
  List.iter
    (fun (backend, shards, domains, inflight) ->
      let got =
        Pool.with_pool ~domains (fun pool ->
            engine_run ~backend ~shards ~inflight ~pool ~sessions ())
      in
      Alcotest.(check string)
        (Printf.sprintf "%s shards=%d j=%d inflight=%d"
           (Backend.to_string backend) shards domains inflight)
        reference got)
    [
      (Backend.Sim, 1, 1, 16);
      (Backend.Sim, 4, 4, 16);
      (Backend.Sim, 13, 2, 16);
      (Backend.Live, 3, 2, 5);
      (Backend.Live, 2, 4, 1);
    ]

let test_engine_recycle_off_identical () =
  (* ~recycle:false escape hatch: the recycled engine (the default) and
     a fresh-state engine agree byte-for-byte at every shard shape the
     acceptance sweep names — shards {1,2,4,13}, -j {1,4}, both
     backends *)
  let sessions = 400 in
  let reference = engine_run ~recycle:false ~sessions () in
  List.iter
    (fun (backend, shards, domains, inflight) ->
      let recycled =
        Pool.with_pool ~domains (fun pool ->
            engine_run ~backend ~shards ~inflight ~pool ~sessions ())
      in
      Alcotest.(check string)
        (Printf.sprintf "recycled %s shards=%d j=%d inflight=%d"
           (Backend.to_string backend) shards domains inflight)
        reference recycled)
    [
      (Backend.Sim, 1, 1, 16);
      (Backend.Sim, 2, 4, 16);
      (Backend.Sim, 4, 4, 16);
      (Backend.Sim, 13, 4, 16);
      (Backend.Live, 2, 1, 4);
      (Backend.Live, 13, 4, 3);
    ]

let test_engine_random_protocol_sessions () =
  (* not just the toy: arbitrary generated protocols obey the same
     digest contract through the engine *)
  let make ~seed =
    Runner.config ~scheduler:(Scheduler.random_seeded seed)
      (random_protocol ~n:4 ~seed ())
  in
  let profile o = Diff.profile ~show o in
  let runs ?shards ?pool () =
    Engine.det_repr (Engine.run ?shards ?pool ~sessions:80 ~make ~profile ())
  in
  let seq = runs () in
  let par = Pool.with_pool ~domains:4 (fun pool -> runs ~shards:8 ~pool ()) in
  Alcotest.(check string) "random protocols shard-invariant" seq par

let test_engine_edges () =
  Alcotest.(check string) "zero sessions, many shards"
    (engine_run ~sessions:0 ())
    (engine_run ~sessions:0 ~shards:7 ());
  Alcotest.(check string) "fewer sessions than shards"
    (engine_run ~sessions:3 ())
    (engine_run ~sessions:3 ~shards:16 ());
  List.iter
    (fun f -> match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> engine_run ~sessions:(-1) ());
      (fun () -> engine_run ~sessions:1 ~shards:0 ());
      (fun () -> engine_run ~sessions:1 ~inflight:0 ());
    ]

let test_engine_counts () =
  let s =
    Engine.run ~sessions:50 ~make:toy_make ~profile:Engine.Toy.profile ()
  in
  Alcotest.(check int) "all sessions complete" 50 s.Engine.completed;
  Alcotest.(check int) "profile counts add up" 50
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Engine.profiles);
  Alcotest.(check int) "one latency sample per session" 50
    (Obs.Hist.count s.Engine.latency);
  (* toy game: n*(n-1) = 12 deliveries per session *)
  Alcotest.(check int) "delivered messages" (50 * 12)
    (Obs.Metrics.delivered_total (Obs.Agg.total s.Engine.agg))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "transport"
    [
      ( "differential",
        [
          Alcotest.test_case "three families x >=100 seeds (acceptance)" `Slow
            test_differential_families;
          Alcotest.test_case "report fields + detects divergence" `Quick
            test_differential_report_fields;
          Alcotest.test_case "every loop branch: sim repr = live repr" `Quick
            test_loop_branches_identical;
        ]
        @ qsuite
            [
              prop_random_protocols_identical;
              prop_random_protocols_with_faults;
              prop_relaxed_identical;
            ] );
      ( "recycling",
        Alcotest.test_case "slot reuse across arities" `Quick
          test_slot_reuse_across_arities
        :: qsuite [ prop_recycled_equals_fresh ] );
      ( "live sessions",
        [
          Alcotest.test_case "crash windows match sim per seed" `Quick
            test_crash_window_conservation_matches_sim;
        ] );
      ( "serve",
        [
          Alcotest.test_case "deterministic across batch/backend/domains" `Quick
            test_serve_deterministic_across_shapes;
        ] );
      ( "fiber programs",
        [
          Alcotest.test_case "direct style on both backends" `Quick
            test_fiber_programs_both_backends;
          Alcotest.test_case "halt-on-return and wills" `Quick
            test_fiber_program_will_and_halt;
          Alcotest.test_case "blocked recv cancelled at teardown" `Quick
            test_fiber_program_cancelled_at_teardown;
        ] );
      ( "engine",
        [
          Alcotest.test_case "digest invariant under shards/j/inflight/backend"
            `Quick test_engine_invariant_under_shape;
          Alcotest.test_case "recycled engine = fresh engine at every shape" `Quick
            test_engine_recycle_off_identical;
          Alcotest.test_case "random protocols shard-invariant" `Quick
            test_engine_random_protocol_sessions;
          Alcotest.test_case "edge cases and validation" `Quick
            test_engine_edges;
          Alcotest.test_case "counts and per-session latency samples" `Quick
            test_engine_counts;
        ] );
    ]
