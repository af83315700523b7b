(* Experiment harness: regenerates every measurable claim of the paper
   (E1-E8, see DESIGN.md section 4) plus the substrate micro-benchmarks.

   Usage:
     dune exec bench/main.exe              -- all experiments, quick budget
     dune exec bench/main.exe -- full      -- larger Monte-Carlo budget
     dune exec bench/main.exe -- smoke     -- ~1/8 budget (CI smoke runs)
     dune exec bench/main.exe -- e1 e5     -- selected experiments
     dune exec bench/main.exe -- micro     -- only the Bechamel benches
     dune exec bench/main.exe -- throughput-- the sharded engine table + rate/latency
                                              measurements and the domain scaling curve
     dune exec bench/main.exe -- csv       -- also write results/<id>.csv
     dune exec bench/main.exe -- json      -- also write BENCH_<budget>.json
                                              (metrics + complexity check; exits 1
                                              if a message bound is violated)
     dune exec bench/main.exe -- lint e3   -- lint every simulator run while measuring
     dune exec bench/main.exe -- -j 4      -- shard trials over 4 domains
     dune exec bench/main.exe -- -j 4 diff -- also rerun at -j 1, check the tables are
                                              byte-identical and report the speedup

   -j defaults to Domain.recommended_domain_count (1 means sequential).
   Tables are a pure function of the budget: -j changes wall-clock only
   (the determinism contract of DESIGN.md section 9, enforced by
   test/test_parallel.ml). The deterministic metric counters obey the
   same contract (DESIGN.md section 10), so diff compares them too;
   wall-clock and GC words are environmental and excluded. *)

let experiments : (string * (Experiments.Common.ctx -> Experiments.Common.table)) list =
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
    ("throughput", Experiments.Throughput.run);
  ]

(* Only run when explicitly named: the fault-injection sweep is not part
   of "all experiments" (its rows measure robustness, not paper claims).
   "hang" is the chaos sweep plus a deliberately hung run whose DEGRADED
   row must surface as exit code 3, never as a sweep abort. *)
let chaos_experiments : (string * (Experiments.Common.ctx -> Experiments.Common.table)) list
    =
  [ ("chaos", Experiments.Chaos.run); ("hang", Experiments.Chaos.run_hang) ]

let table_repr (t : Experiments.Common.table) =
  let metrics =
    match t.Experiments.Common.metrics with
    | None -> ""
    | Some m -> "\n" ^ Obs.Metrics.det_repr m
  in
  Experiments.Common.to_csv t ^ t.Experiments.Common.verdict ^ metrics

let table_to_json ~wall_clock (t : Experiments.Common.table) =
  Obs.Json.Obj
    [
      ("id", Obs.Json.String t.Experiments.Common.id);
      ("title", Obs.Json.String t.Experiments.Common.title);
      ("claim", Obs.Json.String t.Experiments.Common.claim);
      ( "header",
        Obs.Json.List (List.map (fun h -> Obs.Json.String h) t.Experiments.Common.header) );
      ( "rows",
        Obs.Json.List
          (List.map
             (fun row -> Obs.Json.List (List.map (fun c -> Obs.Json.String c) row))
             t.Experiments.Common.rows) );
      ("verdict", Obs.Json.String t.Experiments.Common.verdict);
      ( "metrics",
        match t.Experiments.Common.metrics with
        | None -> Obs.Json.Null
        | Some m -> Obs.Metrics.to_json m );
      ( "complexity",
        Obs.Json.List (List.map Obs.Complexity.point_to_json t.Experiments.Common.complexity)
      );
      ("wall_clock_s", Obs.Json.Float wall_clock);
    ]

let usage_exit msg =
  prerr_endline msg;
  prerr_endline
    "usage: main.exe [smoke|quick|full] [csv] [json] [lint] [diff] [-j N] \
     [--baseline FILE] [--tolerance FRAC] [ids...|chaos|hang]";
  exit 2

(* --- perf regression gate -------------------------------------------
   [--baseline FILE] compares this run's per-experiment wall-clocks and
   micro-benchmark estimates against a previously committed
   BENCH_<budget>.json; anything slower than baseline * (1 + tolerance)
   is a regression and the run exits 1. Being faster never fails. The
   baseline is read before the run starts, so a [json] run that
   overwrites the file still diffs against the committed numbers.

   Noise floors: experiments under 50 ms and micro estimates under 10 ns
   at baseline are skipped — at that scale the relative band measures
   jitter, not the code. *)

let min_experiment_s = 0.05
let min_micro_ns = 10.0

type baseline = {
  b_budget : string option;
  b_experiments : (string * float) list; (* id -> wall_clock_s *)
  b_micro : (string * float) list; (* bench name -> ns/run *)
  b_model_check : (string * float) list; (* counter -> value *)
  b_throughput : (string * float) list; (* rate/latency -> value *)
  b_wire : (string * float) list; (* encoding size -> bytes *)
  b_total : float option;
}

let load_baseline file =
  let doc = Obs.Json.of_file file in
  let experiments =
    match Obs.Json.member "experiments" doc with
    | Some (Obs.Json.Obj fields) ->
        List.filter_map
          (fun (id, t) ->
            match Option.bind (Obs.Json.member "wall_clock_s" t) Obs.Json.to_float_opt with
            | Some w -> Some (id, w)
            | None -> None)
          fields
    | _ -> []
  in
  let micro =
    match Obs.Json.member "micro" doc with
    | Some (Obs.Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match Obs.Json.to_float_opt v with
            | Some ns -> Some (name, ns)
            | None -> None)
          fields
    | _ -> []
  in
  let model_check =
    match Obs.Json.member "model_check" doc with
    | Some (Obs.Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match Obs.Json.to_float_opt v with
            | Some x -> Some (name, x)
            | None -> None)
          fields
    | _ -> []
  in
  let throughput =
    match Obs.Json.member "throughput" doc with
    | Some (Obs.Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match Obs.Json.to_float_opt v with
            | Some x -> Some (name, x)
            | None -> None)
          fields
    | _ -> []
  in
  let wire =
    match Obs.Json.member "wire" doc with
    | Some (Obs.Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match Obs.Json.to_float_opt v with
            | Some x -> Some (name, x)
            | None -> None)
          fields
    | _ -> []
  in
  {
    b_budget = Option.bind (Obs.Json.member "budget" doc) Obs.Json.to_string_opt;
    b_experiments = experiments;
    b_micro = micro;
    b_model_check = model_check;
    b_throughput = throughput;
    b_wire = wire;
    b_total =
      Option.bind (Obs.Json.member "total_wall_clock_s" doc) Obs.Json.to_float_opt;
  }

(* Deterministic model-checker counters over the fixture catalog: the
   DPOR replay count and distinct-state totals are pure functions of the
   fixtures, so any drift against the baseline is a real search
   regression (a weakened independence relation or broken sleep sets),
   not noise. The slow §6.4 fixture is excluded — its counters are
   budget-capped, not search-determined. *)
let model_check_measure ~pool () =
  let dpor_runs, naive_runs, naive_capped = Experiments.Check.reduction ~pool () in
  let states, runs =
    List.fold_left
      (fun (states, runs) (f : Experiments.Check.fixture) ->
        if f.Experiments.Check.name = "pitfall64" then (states, runs)
        else
          let r = f.Experiments.Check.run ~pool () in
          let s = r.Experiments.Check.stats in
          (states + s.Analysis.Mc.states, runs + s.Analysis.Mc.runs))
      (0, 0) Experiments.Check.fixtures
  in
  ( [
      ("dpor_runs", float_of_int dpor_runs);
      ("naive_runs", float_of_int naive_runs);
      ("reduction_ratio", float_of_int naive_runs /. float_of_int dpor_runs);
      ("catalog_runs", float_of_int runs);
      ("states_explored", float_of_int states);
    ],
    naive_capped )

(* Bytes-per-message budget for the durability layer (DESIGN.md section
   16): encode one deterministic reference run with Wire and report the
   per-record byte costs. The run is a pure function of its seed, so
   these are exact numbers, not estimates — any encoding change that
   bloats durable stores drifts against the committed baseline. *)
let wire_measure () =
  let spec = Mediator.Spec.coordination ~n:5 in
  let plan =
    Cheaptalk.Compile.plan_exn ~spec ~theorem:Cheaptalk.Compile.T41 ~k:0 ~t:1 ()
  in
  let seed = 7 in
  let procs =
    Cheaptalk.Compile.processes plan ~types:(Array.make 5 0) ~coin_seed:(seed * 7919)
      ~seed
  in
  let entries = ref [] in
  let o =
    Sim.Runner.run_journaled
      ~emit:(fun e -> entries := e :: !entries)
      (Sim.Runner.config ~record:true ~scheduler:(Sim.Scheduler.random_seeded seed) procs)
  in
  let entries = Array.of_list (List.rev !entries) in
  let events = Sim.Runner.recorded_trace ~who:"wire_measure" o in
  let per total count = float_of_int total /. float_of_int (max 1 count) in
  [
    ( "bytes_per_event",
      per (String.length (Wire.Event.encode_list events)) (List.length events) );
    ( "bytes_per_decision",
      per (String.length (Wire.Entry.encode_array entries)) (Array.length entries) );
    ( "metrics_bytes",
      float_of_int (String.length (Wire.Metrics.to_string o.Sim.Types.metrics)) );
  ]

let min_rate = 1.0
let min_latency_us = 50.0

let check_gate ~tolerance ~(baseline : baseline) ~timings ~micro ~model_check ~throughput
    ~wire ~total =
  let regressions = ref [] in
  let compare_one ~floor ~unit name base now =
    if base >= floor then begin
      let limit = base *. (1.0 +. tolerance) in
      let verdict = if now > limit then "REGRESSED" else "ok" in
      if now > limit then regressions := name :: !regressions;
      Printf.printf "  %-44s %10.2f %s %10.2f %s (x%.2f) %s\n" name base unit now unit
        (now /. base) verdict
    end
  in
  (* higher-is-better metrics (throughput rates): faster always passes,
     a regression is falling below baseline / (1 + tolerance) *)
  let compare_rate ~floor ~unit name base now =
    if base >= floor then begin
      let limit = base /. (1.0 +. tolerance) in
      let verdict = if now < limit then "REGRESSED" else "ok" in
      if now < limit then regressions := name :: !regressions;
      Printf.printf "  %-44s %10.2f %s %10.2f %s (x%.2f) %s\n" name base unit now unit
        (now /. base) verdict
    end
  in
  Printf.printf "\n=== perf gate (tolerance +%.0f%%) ===\n" (tolerance *. 100.0);
  Printf.printf "  %-44s %13s %13s\n" "" "baseline" "current";
  List.iter
    (fun (id, dt) ->
      match List.assoc_opt id baseline.b_experiments with
      | Some base -> compare_one ~floor:min_experiment_s ~unit:"s" id base dt
      | None -> ())
    timings;
  List.iter
    (fun (name, ns) ->
      match List.assoc_opt name baseline.b_micro with
      | Some base -> compare_one ~floor:min_micro_ns ~unit:"ns" name base ns
      | None -> ())
    micro;
  (* model-check counters are deterministic: lower is better for the
     replay/state totals, so the timing comparison applies verbatim;
     the reduction ratio (bigger is better) is reported in the JSON but
     gated through dpor_runs, its only moving part *)
  List.iter
    (fun (name, v) ->
      if name <> "reduction_ratio" then
        match List.assoc_opt name baseline.b_model_check with
        | Some base ->
            compare_one ~floor:1.0 ~unit:"" ("model_check." ^ name) base v
        | None -> ())
    model_check;
  (* throughput: rates gate downward drops, latency percentiles gate
     upward drifts (with a doubled band — tail latency on a shared box
     is the noisiest number the gate sees), and the allocation budget
     (words/session — a deterministic-ish count, lower is better) gates
     upward drifts like a timing *)
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name baseline.b_throughput with
      | Some base ->
          let gname = "throughput." ^ name in
          if name = "p50_latency_us" || name = "p99_latency_us" then begin
            let limit = base *. (1.0 +. (2.0 *. tolerance)) in
            if base >= min_latency_us then begin
              let verdict = if v > limit then "REGRESSED" else "ok" in
              if v > limit then regressions := gname :: !regressions;
              Printf.printf "  %-44s %10.2f us %10.2f us (x%.2f) %s\n" gname base v
                (v /. base) verdict
            end
          end
          else if name = "words_per_session" then
            compare_one ~floor:1.0 ~unit:"w" gname base v
          else compare_rate ~floor:min_rate ~unit:"/s" gname base v
      | None -> ())
    throughput;
  (* wire encoding sizes are deterministic and lower-is-better, so the
     timing comparison applies verbatim (bytes instead of seconds) *)
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name baseline.b_wire with
      | Some base -> compare_one ~floor:1.0 ~unit:"B" ("wire." ^ name) base v
      | None -> ())
    wire;
  (match baseline.b_total with
  | Some base -> compare_one ~floor:min_experiment_s ~unit:"s" "total" base total
  | None -> ());
  List.rev !regressions

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* pull "-j N" (or "-jN") out of the argument list *)
  let jobs = ref (Domain.recommended_domain_count ()) in
  let set_jobs n =
    if n < 1 then usage_exit (Printf.sprintf "-j %d: job count must be >= 1" n);
    jobs := n
  in
  let baseline_file = ref None in
  let tolerance = ref 0.5 in
  let rec strip_j acc = function
    | [] -> List.rev acc
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n ->
            set_jobs n;
            strip_j acc rest
        | None -> usage_exit (Printf.sprintf "-j %s: not an integer" n))
    | [ "-j" ] -> usage_exit "-j: missing job count"
    | "--baseline" :: file :: rest ->
        baseline_file := Some file;
        strip_j acc rest
    | [ "--baseline" ] -> usage_exit "--baseline: missing file"
    | "--tolerance" :: x :: rest -> (
        match float_of_string_opt x with
        | Some t when t >= 0.0 ->
            tolerance := t;
            strip_j acc rest
        | _ -> usage_exit (Printf.sprintf "--tolerance %s: not a non-negative number" x))
    | [ "--tolerance" ] -> usage_exit "--tolerance: missing value"
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "-j" -> (
        match int_of_string_opt (String.sub arg 2 (String.length arg - 2)) with
        | Some n ->
            set_jobs n;
            strip_j acc rest
        | None -> usage_exit (Printf.sprintf "%s: not an integer job count" arg))
    | arg :: rest -> strip_j (arg :: acc) rest
  in
  let args = strip_j [] args in
  let budget, budget_name =
    if List.mem "full" args then (Experiments.Common.Full, "full")
    else if List.mem "smoke" args then (Experiments.Common.Smoke, "smoke")
    else (Experiments.Common.Quick, "quick")
  in
  let csv = List.mem "csv" args in
  let json = List.mem "json" args in
  let lint = List.mem "lint" args in
  let diff = List.mem "diff" args in
  let keywords = [ "full"; "quick"; "smoke"; "csv"; "json"; "lint"; "diff" ] in
  let selected = List.filter (fun a -> not (List.mem a keywords)) args in
  let want id = selected = [] || List.mem id selected in
  let check_runs = lint || Cheaptalk.Verify.default_check_runs in
  (* read the baseline up front: a [json] run may overwrite the file *)
  let baseline =
    match !baseline_file with
    | None -> None
    | Some file -> (
        try Some (load_baseline file) with
        | Obs.Json.Parse_error msg ->
            usage_exit (Printf.sprintf "--baseline %s: %s" file msg)
        | Sys_error msg -> usage_exit (Printf.sprintf "--baseline: %s" msg))
  in
  (match baseline with
  | Some b when b.b_budget <> None && b.b_budget <> Some budget_name ->
      usage_exit
        (Printf.sprintf "--baseline: budget mismatch (baseline %s, this run %s)"
           (Option.value ~default:"?" b.b_budget)
           budget_name)
  | _ -> ());
  let pool = Parallel.Pool.create ~domains:!jobs () in
  let ctx = Experiments.Common.ctx ~pool ~check_runs budget in
  let seq_ctx = Experiments.Common.ctx ~check_runs budget in
  let j = Parallel.Pool.domains pool in
  let mismatches = ref [] in
  let json_tables = ref [] in
  let timings = ref [] in
  let degraded = ref 0 in
  let t0 = Obs.Metrics.now () in
  let run_one (id, run) =
    let t = Obs.Metrics.now () in
    let table = run ctx in
    let dt = Obs.Metrics.now () -. t in
    Experiments.Common.print_table table;
    degraded := !degraded + Experiments.Chaos.degraded_rows table;
    if csv then Experiments.Common.write_csv ~dir:"results" table;
    if json then json_tables := (id, table, dt) :: !json_tables;
    timings := (id, dt) :: !timings;
    if diff then begin
      let t1 = Obs.Metrics.now () in
      let seq_table = run seq_ctx in
      let dt1 = Obs.Metrics.now () -. t1 in
      let identical = table_repr table = table_repr seq_table in
      if not identical then mismatches := id :: !mismatches;
      Printf.printf "(%.1fs at -j %d, %.1fs at -j 1: %.2fx, tables %s)\n" dt j dt1
        (dt1 /. dt)
        (if identical then "byte-identical" else "DIFFER")
    end
    else Printf.printf "(%.1fs, -j %d)\n" dt j
  in
  (* a config violation (Sim.Runner.config / Faults.make validation) is a
     usage failure, not a crash with a backtrace *)
  (try
     List.iter (fun (id, run) -> if want id then run_one (id, run)) experiments;
     (* chaos/hang never run implicitly: they must be named *)
     List.iter
       (fun (id, run) -> if List.mem id selected then run_one (id, run))
       chaos_experiments
   with Invalid_argument msg -> usage_exit ("invalid configuration: " ^ msg));
  let micro_ms = if want "micro" then Experiments.Micro.run () else [] in
  (* environmental throughput numbers: measured outside the tables (the
     tables are deterministic; these are rates), printed always, gated
     and persisted when a baseline / json is in play *)
  let thr_env =
    if want "throughput" then Some (Experiments.Throughput.measure_env ~budget ())
    else None
  in
  (match thr_env with
  | None -> ()
  | Some e ->
      Printf.printf
        "\nthroughput (single domain): %.0f sessions/min, %.0f msgs/sec, latency \
         p50=%.0fus p99=%.0fus, %.0f words/session\n"
        e.Experiments.Throughput.sessions_per_min e.Experiments.Throughput.messages_per_sec
        e.Experiments.Throughput.p50_us e.Experiments.Throughput.p99_us
        e.Experiments.Throughput.words_per_session;
      List.iter
        (fun (d, r) ->
          Printf.printf "  scaling: %d domain(s) -> %.0f sessions/min\n" d r)
        e.Experiments.Throughput.scaling);
  let thr_metrics =
    match thr_env with
    | None -> []
    | Some e ->
        [
          ("sessions_per_min", e.Experiments.Throughput.sessions_per_min);
          ("messages_per_sec", e.Experiments.Throughput.messages_per_sec);
          ("p50_latency_us", e.Experiments.Throughput.p50_us);
          ("p99_latency_us", e.Experiments.Throughput.p99_us);
          ("words_per_session", e.Experiments.Throughput.words_per_session);
        ]
  in
  let mc_counters, mc_naive_capped =
    if json || baseline <> None then model_check_measure ~pool ()
    else ([], false)
  in
  let wire_bytes = if json || baseline <> None then wire_measure () else [] in
  let total = Obs.Metrics.now () -. t0 in
  Printf.printf "\nTotal: %.1fs (-j %d)\n" total j;
  Parallel.Pool.shutdown pool;
  let bound_violated = ref false in
  if json then begin
    let tables = List.rev !json_tables in
    let points =
      List.concat_map (fun (_, t, _) -> t.Experiments.Common.complexity) tables
    in
    let fit = Obs.Complexity.fit points in
    if not (Obs.Complexity.ok fit) then bound_violated := true;
    (* the faults section: injected-fault and degradation totals across
       every table in this run — all deterministic counters *)
    let fsum =
      List.fold_left
        (fun acc (_, t, _) ->
          match t.Experiments.Common.metrics with
          | None -> acc
          | Some m -> Obs.Metrics.merge acc m)
        Obs.Metrics.zero tables
    in
    let faults_json =
      Obs.Json.Obj
        [
          ("injected_dup", Obs.Json.Int fsum.Obs.Metrics.injected_dup);
          ("injected_corrupt", Obs.Json.Int fsum.Obs.Metrics.injected_corrupt);
          ("injected_delay", Obs.Json.Int fsum.Obs.Metrics.injected_delay);
          ("injected_crash", Obs.Json.Int fsum.Obs.Metrics.injected_crash);
          ("injected_total", Obs.Json.Int (Obs.Metrics.injected_total fsum));
          ("timed_out", Obs.Json.Int fsum.Obs.Metrics.timed_out);
          ("trial_retries", Obs.Json.Int fsum.Obs.Metrics.trial_retries);
          ("degraded_rows", Obs.Json.Int !degraded);
        ]
    in
    let doc =
      Obs.Json.Obj
        [
          ("budget", Obs.Json.String budget_name);
          ("jobs", Obs.Json.Int j);
          ("total_wall_clock_s", Obs.Json.Float total);
          ( "experiments",
            Obs.Json.Obj
              (List.map
                 (fun (id, t, dt) -> (id, table_to_json ~wall_clock:dt t))
                 tables) );
          ( "micro",
            Obs.Json.Obj (List.map (fun (name, ns) -> (name, Obs.Json.Float ns)) micro_ms)
          );
          ("complexity", Obs.Complexity.fit_to_json fit);
          ("faults", faults_json);
          ( "throughput",
            Obs.Json.Obj
              (List.map (fun (k, v) -> (k, Obs.Json.Float v)) thr_metrics
              @
              match thr_env with
              | Some e ->
                  [
                    ( "scaling_sessions_per_min",
                      Obs.Json.Obj
                        (List.map
                           (fun (d, r) ->
                             ("domains_" ^ string_of_int d, Obs.Json.Float r))
                           e.Experiments.Throughput.scaling) );
                  ]
              | None -> []) );
          ( "model_check",
            Obs.Json.Obj
              (List.map (fun (name, v) -> (name, Obs.Json.Float v)) mc_counters
              @ [ ("naive_capped", Obs.Json.Bool mc_naive_capped) ]) );
          ( "wire",
            Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) wire_bytes) );
        ]
    in
    let path = Printf.sprintf "BENCH_%s.json" budget_name in
    Obs.Json.to_file path doc;
    Printf.printf "wrote %s (%s)\n" path
      (Format.asprintf "%a" Obs.Complexity.pp_fit fit)
  end;
  (match !mismatches with
  | [] -> ()
  | ids ->
      Printf.eprintf "diff: tables differ between -j %d and -j 1: %s\n" j
        (String.concat " " (List.rev ids));
      exit 1);
  (match baseline with
  | None -> ()
  | Some b -> (
      match
        check_gate ~tolerance:!tolerance ~baseline:b ~timings:(List.rev !timings)
          ~micro:micro_ms ~model_check:mc_counters ~throughput:thr_metrics
          ~wire:wire_bytes ~total
      with
      | [] -> Printf.printf "perf gate: ok\n"
      | regs ->
          Printf.eprintf "perf gate: regression beyond +%.0f%%: %s\n" (!tolerance *. 100.0)
            (String.concat " " regs);
          exit 1));
  if !bound_violated then begin
    Printf.eprintf "complexity: a message count exceeded its O(nNc) bound\n";
    exit 1
  end;
  if !degraded > 0 then begin
    (* graceful degradation: the sweep completed and the tables were
       printed, but some rows fell below full fidelity *)
    Printf.eprintf "chaos: %d table row(s) DEGRADED\n" !degraded;
    exit 3
  end
