(* The differential parallel-vs-sequential harness (ISSUE 2).

   The paper's guarantees are distributional, so the experiment tables
   ARE the reproduction's evidence: parallelizing the Monte-Carlo loops
   is only admissible if it provably changes nothing. Enforced here:

   - Pool.map_seeded is a pure function of the seed range — invariant
     under domain count and chunk size (qcheck property);
   - every experiment table (rows + verdict) is byte-identical between
     -j 1 and -j 4 at the Smoke budget;
   - compiled plans are domain-safe: concurrent runs in separate domains
     reproduce the single-domain run bit-for-bit (qcheck property over
     seeds — catches hidden cross-run globals in lib/sim / lib/mpc);
   - the run linter still works under -j > 1: clean plans lint clean
     from worker domains, and a seeded effect-discipline bug raised in a
     worker domain propagates to the submitter (regression for the
     Verify.check_runs global-ref removal). *)

module Pool = Parallel.Pool
module Common = Experiments.Common
module Verify = Cheaptalk.Verify
module Compile = Cheaptalk.Compile
module Spec = Mediator.Spec
module F = Analysis.Finding

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Pool.map_seeded *)

(* a deterministic, seed-dependent payload with some work in it *)
let payload s =
  let h = ref s in
  for i = 1 to 50 do
    h := (!h * 1103515245) + 12345 + i
  done;
  (s, !h land 0xFFFFFF)

let prop_map_seeded_invariant =
  QCheck.Test.make ~count:25 ~name:"map_seeded invariant under domains and chunk"
    QCheck.(triple (int_bound 60) (int_bound 4) (int_bound 6))
    (fun (len, domains, chunk) ->
      let lo = 17 in
      let expect = Array.init len (fun i -> payload (lo + i)) in
      Pool.with_pool ~domains:(1 + domains) (fun pool ->
          Pool.map_seeded ~chunk:(1 + chunk) ~pool ~seeds:(lo, lo + len) payload = expect))

let test_map_seeded_empty () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "empty range" 0
        (Array.length (Pool.map_seeded ~pool ~seeds:(5, 5) payload)))

let test_pool_exception_propagates () =
  (* a worker failure is wrapped as Trial_failed naming the exact
     replayable seed, with the original exception inside *)
  Pool.with_pool ~domains:4 (fun pool ->
      match Pool.map_seeded ~chunk:3 ~pool ~seeds:(0, 100) (fun s ->
                if s = 57 then failwith "boom at 57" else s)
      with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Pool.Trial_failed { seed; exn = Failure msg; _ } ->
          Alcotest.(check int) "failing seed named" 57 seed;
          Alcotest.(check string) "original exn carried" "boom at 57" msg
      | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e))

let test_pool_failure_wrapped_sequentially () =
  (* the sequential path (domains = 1) wraps identically: callers match
     one exception shape at every -j *)
  match Pool.map_seeded ~pool:Pool.sequential ~seeds:(10, 20) (fun s ->
            if s = 13 then failwith "boom" else s)
  with
  | _ -> Alcotest.fail "expected Trial_failed"
  | exception Pool.Trial_failed { seed = 13; exn = Failure msg; _ } ->
      Alcotest.(check string) "original exn carried" "boom" msg
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)

let test_trial_failed_never_nested () =
  (* an f that already raises Trial_failed propagates unchanged *)
  let inner = Pool.Trial_failed { seed = 99; exn = Not_found; backtrace = "" } in
  match Pool.map_seeded ~pool:Pool.sequential ~seeds:(0, 4) (fun s ->
            if s = 2 then raise inner else s)
  with
  | _ -> Alcotest.fail "expected Trial_failed"
  | exception Pool.Trial_failed { seed; exn; _ } ->
      Alcotest.(check int) "inner seed preserved" 99 seed;
      Alcotest.(check bool) "not double-wrapped" true (exn = Not_found)

let test_pool_create_rejects_nonpositive () =
  (* -j validation lives in the CLIs; the pool itself must refuse the
     nonsense rather than silently clamp it *)
  List.iter
    (fun d ->
      match Pool.create ~domains:d () with
      | _ -> Alcotest.failf "Pool.create ~domains:%d should raise" d
      | exception Invalid_argument _ -> ())
    [ 0; -1; -8 ]

let test_pool_reusable_after_failure () =
  (* a failed job must not wedge the workers for the next one *)
  Pool.with_pool ~domains:4 (fun pool ->
      (try ignore (Pool.map_seeded ~pool ~seeds:(0, 50) (fun _ -> failwith "die")) with
      | Pool.Trial_failed _ -> ());
      let r = Pool.map_seeded ~pool ~seeds:(0, 50) (fun s -> s * s) in
      Alcotest.(check int) "pool still works" (49 * 49) r.(49))

(* ------------------------------------------------------------------ *)
(* Verify measurement loops: pool must not change the numbers *)

let plan_coord =
  Compile.plan_exn ~spec:(Spec.coordination ~n:5) ~theorem:Compile.T41 ~k:0 ~t:1 ()

let plan_majority =
  Compile.plan_exn ~spec:(Spec.majority_match ~n:5) ~theorem:Compile.T41 ~k:0 ~t:1 ()

let test_expected_utilities_pool_invariant () =
  let seq =
    Verify.expected_utilities plan_majority ~samples:12 ~scheduler_of:Common.scheduler_of
      ~seed:7 ()
  in
  Pool.with_pool ~domains:3 (fun pool ->
      let par =
        Verify.expected_utilities ~pool plan_majority ~samples:12
          ~scheduler_of:Common.scheduler_of ~seed:7 ()
      in
      Alcotest.(check (array (float 0.0))) "utilities bit-identical" seq par)

let test_metrics_fold_pool_invariant () =
  (* the ?metrics aggregate is folded by the submitter in seed order, so
     its deterministic counters must be byte-identical at any -j *)
  let collect pool =
    let agg = Obs.Agg.create () in
    ignore
      (Verify.expected_utilities ?pool ~metrics:agg plan_majority ~samples:12
         ~scheduler_of:Common.scheduler_of ~seed:7 ());
    (Obs.Metrics.det_repr (Obs.Agg.total agg), Obs.Agg.summary_repr (Obs.Agg.summary agg))
  in
  let seq = collect None in
  Pool.with_pool ~domains:4 (fun pool ->
      let par = collect (Some pool) in
      Alcotest.(check (pair string string)) "metrics byte-identical" seq par)

let test_implementation_distance_pool_invariant () =
  let types = Array.make 5 0 in
  let seq =
    Verify.implementation_distance plan_coord ~types ~samples:10
      ~scheduler_of:Common.scheduler_of ~seed:11
  in
  Pool.with_pool ~domains:4 (fun pool ->
      let par =
        Verify.implementation_distance ~pool plan_coord ~types ~samples:10
          ~scheduler_of:Common.scheduler_of ~seed:11
      in
      Alcotest.(check (float 0.0)) "distance bit-identical" seq par)

(* ------------------------------------------------------------------ *)
(* Experiment tables: byte-identical between -j 1 and -j 4 *)

let experiments : (string * (Common.ctx -> Common.table)) list =
  [
    ("e1", Experiments.E1.run);
    ("e2", Experiments.E2.run);
    ("e3", Experiments.E3.run);
    ("e4", Experiments.E4.run);
    ("e5", Experiments.E5.run);
    ("e6", Experiments.E6.run);
    ("e7", Experiments.E7.run);
    ("e8", Experiments.E8.run);
    ("e9", Experiments.E9.run);
    ("e10", Experiments.E10.run);
    ("a1", Experiments.A1.run);
    (* the fault-injection sweep obeys the same contract: every injected
       fault (and the retry bookkeeping) is decided by seed-derived
       plans, so its table — fault counters included via det_repr — must
       be byte-identical at any -j *)
    ("chaos", Experiments.Chaos.run);
    (* the sharded engine's table: its rows are themselves digest
       comparisons across shard counts, and the whole table must still
       be byte-identical at any -j *)
    ("throughput", Experiments.Throughput.run);
  ]

(* rows + verdict + the deterministic metric counters: a table (and its
   observability record) must be a pure function of the budget *)
let table_repr (t : Common.table) =
  let metrics =
    match t.Common.metrics with None -> "-" | Some m -> Obs.Metrics.det_repr m
  in
  Common.to_csv t ^ "|" ^ t.Common.verdict ^ "|" ^ metrics

let differential_case (id, run) =
  Alcotest.test_case id `Slow (fun () ->
      let seq = run (Common.ctx Common.Smoke) in
      let par =
        Pool.with_pool ~domains:4 (fun pool -> run (Common.ctx ~pool Common.Smoke))
      in
      Alcotest.(check string)
        (id ^ ": table byte-identical between -j 1 and -j 4")
        (table_repr seq) (table_repr par))

(* ------------------------------------------------------------------ *)
(* Domain safety of compiled plans *)

let run_digest plan seed =
  let n = plan.Compile.spec.Spec.game.Games.Game.n in
  let r =
    Verify.run_once plan ~types:(Array.make n 0)
      ~scheduler:(Sim.Scheduler.random_seeded seed) ~seed
  in
  ( Array.to_list r.Verify.actions,
    r.Verify.outcome.Sim.Types.messages_sent,
    r.Verify.outcome.Sim.Types.steps,
    r.Verify.deadlocked )

let prop_concurrent_plans_match =
  QCheck.Test.make ~count:8 ~name:"two plans in concurrent domains match single-domain runs"
    QCheck.(int_bound 1000)
    (fun seed ->
      let expect_a = run_digest plan_coord seed in
      let expect_b = run_digest plan_majority seed in
      let da = Domain.spawn (fun () -> run_digest plan_coord seed) in
      let db = Domain.spawn (fun () -> run_digest plan_majority seed) in
      let got_a = Domain.join da and got_b = Domain.join db in
      got_a = expect_a && got_b = expect_b)

(* Shamir's Lagrange caches are per-domain (Domain.DLS): concurrent
   domains hammering the same index sets must each get the same answers
   as a fresh cold-cache domain, and a domain's cache must fill without
   any cross-domain interference. *)
let prop_shamir_cache_domain_safety =
  QCheck.Test.make ~count:8 ~name:"shamir caches are per-domain and value-transparent"
    QCheck.(int_bound 1000)
    (fun seed ->
      let job dseed () =
        Shamir.clear_caches ();
        let rng = Random.State.make [| dseed; 55 |] in
        let digests =
          List.init 20 (fun i ->
              let t = 1 + ((dseed + i) mod 4) in
              let n = (2 * t) + 3 in
              let secret = Field.Gf.random rng in
              let shares = Shamir.share rng ~n ~t ~secret in
              let tampered = Array.copy shares in
              tampered.(i mod n) <-
                {
                  tampered.(i mod n) with
                  Shamir.value = Field.Gf.add tampered.(i mod n).Shamir.value Field.Gf.one;
                };
              (* repeated index sets: the second call of each pair is a
                 cache hit *)
              let r1 = Shamir.reconstruct ~t (Array.to_list shares) in
              let r2 = Shamir.reconstruct ~t (Array.to_list shares) in
              let rr = Shamir.reconstruct_robust ~t ~max_errors:1 (Array.to_list tampered) in
              (r1, r2, rr, Some secret))
        in
        (digests, Shamir.cache_size () > 0)
      in
      let expected = List.map (fun d -> job d ()) [ seed; seed + 1; seed + 2 ] in
      let domains = List.map (fun d -> Domain.spawn (job d)) [ seed; seed + 1; seed + 2 ] in
      let got = List.map Domain.join domains in
      got = expected
      && List.for_all
           (fun (digests, warm) ->
             warm && List.for_all (fun (r1, r2, rr, s) -> r1 = s && r2 = s && rr = s) digests)
           got)

(* The plan memo is per-domain the same way (Domain.DLS, DESIGN.md
   section 17): concurrent domains compiling the same (spec, theorem, k,
   t) must each fill their own cache, hand back physically shared plan
   records within a domain, memoise Error results too, and produce runs
   byte-identical to the uncached Compile.plan_exn plan. *)
let prop_plan_memo_domain_safety =
  QCheck.Test.make ~count:8
    ~name:"plan memo is per-domain, physically shared, value-transparent"
    QCheck.(int_bound 1000)
    (fun seed ->
      let spec_a = plan_coord.Compile.spec in
      let spec_b = plan_majority.Compile.spec in
      let job dseed () =
        Compile.clear_caches ();
        let p1 = Compile.plan_memo_exn ~spec:spec_a ~theorem:Compile.T41 ~k:0 ~t:1 () in
        let p2 = Compile.plan_memo_exn ~spec:spec_a ~theorem:Compile.T41 ~k:0 ~t:1 () in
        let q = Compile.plan_memo_exn ~spec:spec_b ~theorem:Compile.T41 ~k:0 ~t:1 () in
        (* a failing compilation is cached as its Error, never recomputed
           into a spurious Ok *)
        let err = Compile.plan_memo ~spec:spec_a ~theorem:Compile.T45 ~k:1 ~t:1 () in
        ( p1 == p2,
          Result.is_error err,
          Compile.cache_size (),
          run_digest p1 (dseed land 0xFF),
          run_digest q (dseed land 0xFF) )
      in
      let expect =
        List.map
          (fun d ->
            ( true,
              true,
              3,
              run_digest plan_coord (d land 0xFF),
              run_digest plan_majority (d land 0xFF) ))
          [ seed; seed + 1 ]
      in
      let domains = List.map (fun d -> Domain.spawn (job d)) [ seed; seed + 1 ] in
      let got = List.map Domain.join domains in
      got = expect)

(* ------------------------------------------------------------------ *)
(* Linting from worker domains *)

let test_lint_clean_plan_across_domains () =
  (* check_runs=true travels with the job: every trial in every worker
     domain is linted, and a clean plan stays clean *)
  Pool.with_pool ~domains:4 (fun pool ->
      let digests =
        Verify.map_trials ~pool ~samples:8 ~seed:3 (fun seed ->
            let r =
              Verify.run_once ~check_runs:true plan_coord ~types:(Array.make 5 0)
                ~scheduler:(Common.scheduler_of seed) ~seed
            in
            Array.length r.Verify.actions)
      in
      Alcotest.(check (array int)) "all trials linted and completed" (Array.make 8 5) digests)

let inert : (int, int) Sim.Types.process =
  Sim.Types.
    { start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = (fun () -> None) }

let test_seeded_bug_caught_in_worker_domain () =
  (* the same fail-fast hook Verify applies under check_runs, driven
     from worker domains on a fixture with a seeded effect-discipline
     bug (send after halt): the Failure must cross the domain boundary *)
  let rogue_trial _seed =
    let bad = { inert with Sim.Types.start = (fun () -> Sim.Types.[ Halt; Send (1, 0) ]) } in
    let o =
      Sim.Runner.run
        (Sim.Runner.config ~record:true ~scheduler:(Sim.Scheduler.fifo ()) [| bad; inert |])
    in
    match F.errors (Analysis.check_run o) with
    | [] -> ()
    | f :: _ -> failwith (Format.asprintf "lint: %a" F.pp f)
  in
  Pool.with_pool ~domains:4 (fun pool ->
      match Pool.map_seeded ~pool ~seeds:(0, 16) rogue_trial with
      | _ -> Alcotest.fail "seeded bug not caught in worker domain"
      | exception Pool.Trial_failed { exn = Failure msg; _ } ->
          Alcotest.(check bool) "lint failure surfaced" true (contains ~needle:"lint" msg)
      | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e))

let test_race_fixture_caught_in_worker_domain () =
  (* ctmed lint's --seeded-bug fixture, analyzed inside a worker domain *)
  let findings =
    Pool.with_pool ~domains:2 (fun pool ->
        Pool.map_seeded ~pool ~seeds:(0, 2) (fun _ ->
            Analysis.Race.findings (Analysis.Race.analyze ~make:Analysis.Fixtures.order_bug ())))
  in
  Array.iter
    (fun fs ->
      Alcotest.(check bool) "order-bug flagged from a worker domain" true (F.errors fs <> []))
    findings

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "empty range" `Quick test_map_seeded_empty;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "failure wrapped sequentially" `Quick
            test_pool_failure_wrapped_sequentially;
          Alcotest.test_case "Trial_failed never nested" `Quick test_trial_failed_never_nested;
          Alcotest.test_case "create rejects domains < 1" `Quick
            test_pool_create_rejects_nonpositive;
          Alcotest.test_case "reusable after failure" `Quick test_pool_reusable_after_failure;
        ]
        @ qsuite [ prop_map_seeded_invariant ] );
      ( "verify-invariance",
        [
          Alcotest.test_case "expected_utilities" `Quick test_expected_utilities_pool_invariant;
          Alcotest.test_case "metrics fold" `Quick test_metrics_fold_pool_invariant;
          Alcotest.test_case "implementation_distance" `Quick
            test_implementation_distance_pool_invariant;
        ] );
      ("tables-differential", List.map differential_case experiments);
      ( "domain-safety",
        qsuite
          [
            prop_concurrent_plans_match;
            prop_shamir_cache_domain_safety;
            prop_plan_memo_domain_safety;
          ] );
      ( "lint-under-j",
        [
          Alcotest.test_case "clean plan lints clean across domains" `Quick
            test_lint_clean_plan_across_domains;
          Alcotest.test_case "seeded bug caught in worker domain" `Quick
            test_seeded_bug_caught_in_worker_domain;
          Alcotest.test_case "race fixture caught in worker domain" `Quick
            test_race_fixture_caught_in_worker_domain;
        ] );
    ]
