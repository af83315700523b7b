(* The live backend and the session engine.

   The headline contract: a live run — players hosted on effects
   fibers, the run itself Runner.run over them — is the SAME pure
   function of the seed as a simulator run. Live stays only for the
   served-session benchmark's coord5-live workload, and these tests
   hold it to that contract until the benchmark drops it. Checked here:

   - qcheck: randomly generated protocols produce byte-identical
     outcome reprs (termination, moves, accounting, deterministic
     metrics, trace digest) on sim and live, across scheduler families,
     fault plans and the relaxed stop path;
   - every branch of the decision loop, seed by seed, on both backends;
   - teardown: sent = delivered + dropped holds when a watchdog ends a
     live run, fault accounting matches the simulator per seed, and a
     process that raises ends the live run with the simulator's
     exception;
   - session-state recycling is unobservable on both backends;
   - the session engine (the path `ctmed serve` takes): every session's
     outcome is unchanged by the backend, the shard count and the
     domain count. *)

module Backend = Transport.Backend
module Live = Transport.Live
module Diff = Transport.Differential
module Runner = Sim.Runner
module Scheduler = Sim.Scheduler
module T = Sim.Types
module Pool = Parallel.Pool

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
        Runner.config ~record:true
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
        Runner.config ~record:true
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
        Runner.config ~record:true
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
              Runner.config ~record:true ?faults ?fuzz ?max_steps ?fuel
                ~scheduler:(scheduler seed) (random_protocol ~n:4 ~seed ())
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
        Runner.config ~record:true ~scheduler ?faults ?fuzz (random_protocol ~n:4 ~seed ())
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
    Runner.config ~record:true ~scheduler:(Scheduler.random_seeded seed)
      (random_protocol ~n ~seed ())
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
(* Fault accounting on the live path *)

let test_crash_window_conservation_matches_sim () =
  (* crash-restart windows on the live path: per-kind injected counters
     and conservation identical to the simulator, seed by seed *)
  let faults = Faults.make ~crash:0.5 ~crash_window:8 () in
  for seed = 0 to 24 do
    let cfg () =
      Runner.config ~record:true
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
(* Fiber teardown: a process that raises inside its fiber ends the live
   run with the exception the simulator raises — neither swallowed by
   the fiber handler nor turned into Cancelled — and Live.run cancels
   the fibers still blocked on the way out, so the next run on the same
   domain is the simulator's run again. *)

exception Boom of int

let test_raising_process_teardown () =
  let result run cfg =
    match run cfg with o -> "ok " ^ repr o | exception Boom s -> Printf.sprintf "Boom %d" s
  in
  let raised = ref 0 in
  for seed = 0 to 29 do
    (* the victim raises in start (seed mod 3 = 0) or on its first or
       second delivery *)
    let cfg () =
      let ps = random_protocol ~n:4 ~seed () in
      let victim = seed mod 4 and at = seed mod 3 and calls = ref 0 in
      let p = ps.(victim) in
      let tick () =
        if !calls = at then raise (Boom seed);
        incr calls
      in
      ps.(victim) <-
        {
          p with
          T.start =
            (fun () ->
              tick ();
              p.T.start ());
          receive =
            (fun ~src m ->
              tick ();
              p.T.receive ~src m);
        };
      Runner.config ~record:true ~scheduler:(Scheduler.random_seeded seed) ps
    in
    let r_sim = result Runner.run (cfg ()) in
    let r_live = result Live.run (cfg ()) in
    Alcotest.(check string) (Printf.sprintf "seed %d raises as sim" seed) r_sim r_live;
    if String.starts_with ~prefix:"Boom" r_live then incr raised;
    let clean () =
      Runner.config ~record:true ~scheduler:(Scheduler.random_seeded seed)
        (random_protocol ~n:4 ~seed ())
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %d next run clean" seed)
      (repr (Runner.run (clean ())))
      (repr (Live.run (clean ())))
  done;
  Alcotest.(check bool) "some runs raised" true (!raised >= 10)

(* ------------------------------------------------------------------ *)
(* Serving: `ctmed serve` runs every session through Engine.run *)

let test_serve_deterministic_across_shapes () =
  (* with the full outcome repr as the profile, every served session's
     trace is a key of the profile table, so the table must list exactly
     the sequential Runner.run of each seed, whatever the backend, the
     shard count and -j (the inflight values passed are inert) *)
  let sessions = 13 in
  let make ~seed =
    Runner.config ~record:true ~scheduler:(Scheduler.random_seeded seed)
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
      ( "fiber teardown",
        [
          Alcotest.test_case "raising process: live raises as sim" `Quick
            test_raising_process_teardown;
        ] );
      ( "serve",
        [
          Alcotest.test_case "deterministic across batch/backend/domains" `Quick
            test_serve_deterministic_across_shapes;
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
