(* ctmed — command-line front end for the mediator/cheap-talk library.

   ctmed list                 catalog of specs, experiments and check fixtures
   ctmed run SPEC [opts]      one cheap-talk history of a compiled spec
   ctmed check [FIXTURES]     model-check the fixture catalog (DPOR/naive)
   ctmed lint [opts]          static + dynamic analysis over the bundled examples
   ctmed experiment [IDS]     the paper experiments (E1..E10, A1)
   ctmed serve [opts]         serve mediator-game sessions through the session engine
   ctmed micro                substrate micro-benchmarks *)

open Cmdliner

let specs : (string * (unit -> Mediator.Spec.t)) list =
  [
    ("coordination", fun () -> Mediator.Spec.coordination ~n:5);
    ("majority-match", fun () -> Mediator.Spec.majority_match ~n:5);
    ("majority", fun () -> Mediator.Spec.majority_coordination ~n:5);
    ("byzantine-agreement", fun () -> Mediator.Spec.byzantine_agreement ~n:5);
    ("chicken", fun () -> Mediator.Spec.chicken_with_bystanders ~n:5);
    ("pitfall", fun () -> Mediator.Spec.pitfall_minimal ~n:7 ~k:2);
  ]

let experiment_ids = [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "a1" ]

(* explicit-only: the fault-injection sweep and its hung-trial probe
   run when named, never as part of "all experiments" *)
let chaos_ids = [ "chaos"; "hang" ]

(* --- list --- *)

let list_cmd =
  let doc = "List available specs and experiments." in
  let run () =
    Printf.printf "Specs (ctmed run <spec>):\n";
    List.iter (fun (name, _) -> Printf.printf "  %s\n" name) specs;
    Printf.printf "\nExperiments (ctmed experiment <id>):\n";
    List.iter (fun id -> Printf.printf "  %s\n" id) experiment_ids;
    List.iter
      (fun id -> Printf.printf "  %s (only when named explicitly)\n" id)
      chaos_ids;
    Printf.printf "  micro\n";
    Printf.printf "\nModel-check fixtures (ctmed check <fixture>):\n";
    List.iter
      (fun (f : Experiments.Check.fixture) ->
        Printf.printf "  %-18s %s%s\n" f.Experiments.Check.name
          f.Experiments.Check.descr
          (if f.Experiments.Check.expect_violation then " [expects a violation]"
           else ""))
      Experiments.Check.fixtures
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- run --- *)

let theorem_conv =
  let parse = function
    | "4.1" | "t41" -> Ok Cheaptalk.Compile.T41
    | "4.2" | "t42" -> Ok Cheaptalk.Compile.T42
    | "4.4" | "t44" -> Ok Cheaptalk.Compile.T44
    | "4.5" | "t45" -> Ok Cheaptalk.Compile.T45
    | s -> Error (`Msg ("unknown theorem: " ^ s))
  in
  Arg.conv (parse, fun fmt th -> Cheaptalk.Compile.pp_theorem fmt th)

let faults_conv =
  let parse s =
    match Faults.of_string s with
    | c -> Ok c
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt c -> Format.pp_print_string fmt (Faults.to_string c))

(* Canonical theorem token for store metadata (parsed back by replay). *)
let theorem_token = function
  | Cheaptalk.Compile.T41 -> "4.1"
  | Cheaptalk.Compile.T42 -> "4.2"
  | Cheaptalk.Compile.T44 -> "4.4"
  | Cheaptalk.Compile.T45 -> "4.5"

let theorem_of_token = function
  | "4.1" -> Some Cheaptalk.Compile.T41
  | "4.2" -> Some Cheaptalk.Compile.T42
  | "4.4" -> Some Cheaptalk.Compile.T44
  | "4.5" -> Some Cheaptalk.Compile.T45
  | _ -> None

(* The exact config a journaled run executes and a replay rebuilds: both
   sides derive everything, the seeded scheduler included, from the
   store's metadata, so a replay re-runs the journaled run itself (the
   runner checks every decision against the journal and raises
   Replay_mismatch on any drift). *)
let journal_config ~plan ~seed ~faults ~fuel =
  let n = plan.Cheaptalk.Compile.spec.Mediator.Spec.game.Games.Game.n in
  let procs =
    Cheaptalk.Compile.processes plan ~types:(Array.make n 0) ~coin_seed:(seed * 7919) ~seed
  in
  let fplan = Option.map (Faults.Plan.make ~seed) faults in
  Sim.Runner.config ~record:true ~scheduler:(Sim.Scheduler.random_seeded seed) ?faults:fplan
    ?fuel procs

let journal_meta ~spec_name ~theorem ~k ~t ~seed ~faults ~fuel =
  Obs.Json.Obj
    [
      ("format", Obs.Json.String "ctmed-run");
      ("spec", Obs.Json.String spec_name);
      ("theorem", Obs.Json.String (theorem_token theorem));
      ("k", Obs.Json.Int k);
      ("t", Obs.Json.Int t);
      ("seed", Obs.Json.Int seed);
      ( "faults",
        match faults with
        | None -> Obs.Json.Null
        | Some c -> Obs.Json.String (Faults.to_string c) );
      ("fuel", match fuel with None -> Obs.Json.Null | Some f -> Obs.Json.Int f);
    ]

let run_cmd =
  let doc = "Compile a mediator spec to cheap talk and run one history." in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc:"spec name (see list)")
  in
  let theorem_arg =
    Arg.(
      value
      & opt theorem_conv Cheaptalk.Compile.T41
      & info [ "theorem" ] ~docv:"THM" ~doc:"compilation theorem: 4.1, 4.2, 4.4 or 4.5")
  in
  let k_arg = Arg.(value & opt int 0 & info [ "k" ] ~doc:"rational deviators tolerated") in
  let t_arg = Arg.(value & opt int 1 & info [ "t" ] ~doc:"malicious players tolerated") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"run seed") in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"print the run's observability record (message classes, steps, fallbacks)")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some faults_conv) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "inject channel faults from a deterministic plan, e.g. \
             $(b,dup=0.1,corrupt=0.05,delay=0.2,crash=0.1) (optional \
             $(b,delay_decisions=N), $(b,crash_window=N)); the plan is a pure function of \
             the run seed")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "watchdog: end the run as Timed_out after $(docv) scheduler decisions (a hung \
             system degrades instead of spinning)")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "record the run durably: stream every scheduler decision, the trace and the \
             final metrics into a binary store at $(docv) (replay it with $(b,ctmed \
             replay))")
  in
  let run spec_name theorem k t seed metrics faults fuel journal =
    match List.assoc_opt spec_name specs with
    | None ->
        Printf.eprintf "unknown spec %s (try: ctmed list)\n" spec_name;
        exit 1
    | Some mk -> (
        let spec = mk () in
        let n = spec.Mediator.Spec.game.Games.Game.n in
        match Cheaptalk.Compile.plan ~spec ~theorem ~k ~t () with
        | Error e ->
            Printf.eprintf "cannot compile: %s\n" e;
            exit 1
        | Ok plan when journal <> None ->
            let path = Option.get journal in
            Printf.printf "%s via %s (n=%d k=%d t=%d; degree=%d faults=%d)\n" spec_name
              (Cheaptalk.Compile.theorem_name theorem)
              n k t plan.Cheaptalk.Compile.degree plan.Cheaptalk.Compile.faults;
            let cfg =
              try journal_config ~plan ~seed ~faults ~fuel
              with Invalid_argument msg ->
                Printf.eprintf "ctmed run: %s\n" msg;
                exit 2
            in
            let w =
              Store.Writer.create ~path
                ~meta:(journal_meta ~spec_name ~theorem ~k ~t ~seed ~faults ~fuel)
            in
            let o = Sim.Runner.run_journaled ~emit:(Store.Writer.entry w) cfg in
            let decisions = Store.Writer.records w - 1 in
            List.iter (Store.Writer.event w) o.Sim.Types.trace;
            Store.Writer.metrics w o.Sim.Types.metrics;
            let nrecords = Store.Writer.records w in
            Store.Writer.close w;
            Printf.printf "actions: [%s]\n"
              (String.concat " "
                 (List.init n (fun i ->
                      match o.Sim.Types.moves.(i) with
                      | Some a -> string_of_int a
                      | None -> "-")));
            Printf.printf "messages: %d, delivery steps: %d\n" o.Sim.Types.messages_sent
              o.Sim.Types.steps;
            (match o.Sim.Types.termination with
            | Sim.Types.Timed_out -> Printf.printf "DEGRADED: watchdog ended the run\n"
            | _ -> ());
            if metrics then Format.printf "%a@." Obs.Metrics.pp o.Sim.Types.metrics;
            Printf.printf "journaled %d decisions (%d records) -> %s\n" decisions nrecords
              path
        | Ok plan ->
            Printf.printf "%s via %s (n=%d k=%d t=%d; degree=%d faults=%d)\n" spec_name
              (Cheaptalk.Compile.theorem_name theorem)
              n k t plan.Cheaptalk.Compile.degree plan.Cheaptalk.Compile.faults;
            let r =
              (* an invalid watchdog/fault configuration is a usage
                 error, not a crash with a backtrace *)
              try
                Cheaptalk.Verify.run_once ?faults ?fuel plan ~types:(Array.make n 0)
                  ~scheduler:(Sim.Scheduler.random_seeded seed) ~seed
              with Invalid_argument msg ->
                Printf.eprintf "ctmed run: %s\n" msg;
                exit 2
            in
            Printf.printf "actions: [%s]\n"
              (String.concat " "
                 (Array.to_list (Array.map string_of_int r.Cheaptalk.Verify.actions)));
            Printf.printf "messages: %d, delivery steps: %d, deadlocked: %b\n"
              (Cheaptalk.Verify.messages_used r)
              r.Cheaptalk.Verify.outcome.Sim.Types.steps r.Cheaptalk.Verify.deadlocked;
            (match r.Cheaptalk.Verify.outcome.Sim.Types.termination with
            | Sim.Types.Timed_out -> Printf.printf "DEGRADED: watchdog ended the run\n"
            | _ -> ());
            let m = Cheaptalk.Verify.metrics r in
            if Obs.Metrics.injected_total m > 0 then
              Printf.printf "faults injected: %d dup, %d corrupt, %d delay, %d crash\n"
                m.Obs.Metrics.injected_dup m.Obs.Metrics.injected_corrupt
                m.Obs.Metrics.injected_delay m.Obs.Metrics.injected_crash;
            if metrics then Format.printf "%a@." Obs.Metrics.pp m)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ spec_arg $ theorem_arg $ k_arg $ t_arg $ seed_arg $ metrics_arg
      $ faults_arg $ fuel_arg $ journal_arg)

(* --- experiment --- *)

let experiment_cmd =
  let doc = "Run the paper experiments (all when no id is given)." in
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"experiment ids, e.g. e1 e5")
  in
  let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"4x Monte-Carlo budget") in
  let lint_runs_arg =
    Arg.(
      value & flag
      & info [ "lint-runs" ]
          ~doc:"pass every simulator run through the effect-discipline linter (fail fast)")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "shard Monte-Carlo trials over $(docv) domains (default: the recommended domain \
             count; tables are byte-identical at any value)")
  in
  let run ids full lint_runs jobs =
    if jobs < 1 then begin
      Printf.eprintf "ctmed experiment: --jobs %d: job count must be >= 1\n" jobs;
      exit 2
    end;
    let budget = if full then Experiments.Common.Full else Experiments.Common.Quick in
    let check_runs = lint_runs || Cheaptalk.Verify.default_check_runs in
    let want id = ids = [] || List.mem id ids in
    let table_of = function
      | "e1" -> Some Experiments.E1.run
      | "e2" -> Some Experiments.E2.run
      | "e3" -> Some Experiments.E3.run
      | "e4" -> Some Experiments.E4.run
      | "e5" -> Some Experiments.E5.run
      | "e6" -> Some Experiments.E6.run
      | "e7" -> Some Experiments.E7.run
      | "e8" -> Some Experiments.E8.run
      | "e9" -> Some Experiments.E9.run
      | "e10" -> Some Experiments.E10.run
      | "a1" -> Some Experiments.A1.run
      | "chaos" -> Some Experiments.Chaos.run
      | "hang" -> Some Experiments.Chaos.run_hang
      | _ -> None
    in
    let degraded = ref 0 in
    Parallel.Pool.with_pool ~domains:jobs (fun pool ->
        let ctx = Experiments.Common.ctx ~pool ~check_runs budget in
        let run_one id =
          match table_of id with
          | Some run ->
              let table = run ctx in
              Experiments.Common.print_table table;
              degraded := !degraded + Experiments.Chaos.degraded_rows table
          | None -> ()
        in
        List.iter (fun id -> if want id then run_one id) experiment_ids;
        (* chaos/hang only when explicitly named *)
        List.iter (fun id -> if List.mem id ids then run_one id) chaos_ids);
    if !degraded > 0 then begin
      Printf.eprintf "ctmed experiment: %d table row(s) DEGRADED\n" !degraded;
      exit 3
    end
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const run $ ids_arg $ full_arg $ lint_runs_arg $ jobs_arg)

(* --- mediator --- *)

let mediator_cmd =
  let doc = "Run one canonical mediator-game history (no cheap talk)." in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc:"spec name (see list)")
  in
  let rounds_arg = Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"canonical rounds R") in
  let strong_arg =
    Arg.(value & flag & info [ "strong" ] ~doc:"Lemma 6.8 strong mode (order selects outcome)")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"run seed") in
  let run spec_name rounds strong seed =
    match List.assoc_opt spec_name specs with
    | None ->
        Printf.eprintf "unknown spec %s (try: ctmed list)\n" spec_name;
        exit 1
    | Some mk ->
        let spec = mk () in
        let n = spec.Mediator.Spec.game.Games.Game.n in
        let rng = Random.State.make [| 0xCAFE; seed |] in
        let procs =
          Mediator.Protocol.game_processes ~strong ~spec ~types:(Array.make n 0) ~rounds
            ~wait_for:n ~rng ()
        in
        let o =
          Sim.Runner.run
            (Sim.Runner.config ~mediator:n ~scheduler:(Sim.Scheduler.random_seeded seed) procs)
        in
        Printf.printf "%s mediator game (R=%d%s): actions [%s], %d messages\n" spec_name rounds
          (if strong then ", strong" else "")
          (String.concat " "
             (List.init n (fun i ->
                  match o.Sim.Types.moves.(i) with Some a -> string_of_int a | None -> "-")))
          o.Sim.Types.messages_sent
  in
  Cmd.v (Cmd.info "mediator" ~doc)
    Term.(const run $ spec_arg $ rounds_arg $ strong_arg $ seed_arg)

(* --- trace --- *)

let trace_cmd =
  let doc = "Print the message-sequence chart of one mediator-game run." in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc:"spec name (see list)")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"run seed") in
  let limit_arg = Arg.(value & opt int 60 & info [ "limit" ] ~doc:"max events to print") in
  let run spec_name seed limit =
    match List.assoc_opt spec_name specs with
    | None ->
        Printf.eprintf "unknown spec %s (try: ctmed list)\n" spec_name;
        exit 1
    | Some mk ->
        let spec = mk () in
        let n = spec.Mediator.Spec.game.Games.Game.n in
        let rng = Random.State.make [| 0xCAFE; seed |] in
        let procs =
          Mediator.Protocol.game_processes ~spec ~types:(Array.make n 0) ~rounds:2 ~wait_for:n
            ~rng ()
        in
        let o =
          Sim.Runner.run
            (Sim.Runner.config ~record:true ~mediator:n
               ~scheduler:(Sim.Scheduler.random_seeded seed) procs)
        in
        print_string (Sim.Trace_pp.chart ~limit o);
        Format.printf "%a@." Sim.Trace_pp.pp_stats (Sim.Trace_pp.stats o)
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ spec_arg $ seed_arg $ limit_arg)

(* --- lemma68 --- *)

let lemma68_cmd =
  let doc = "Lemma 6.8 counting: patterns, scheduler classes, padding rounds." in
  let n_arg = Arg.(value & opt int 7 & info [ "n" ] ~doc:"players") in
  let r_arg = Arg.(value & opt int 1 & info [ "r" ] ~doc:"mediator messages per player") in
  let run n r =
    Printf.printf "Lemma 6.8 at n=%d, r=%d\n" n r;
    Printf.printf "  message patterns      <= 10^%.2f\n" (Mediator.Lemma68.log10_pattern_bound ~n ~r);
    Printf.printf "  scheduler classes     <= 10^%.2f\n" (Mediator.Lemma68.log10_class_bound ~n ~r);
    Printf.printf "  padding rounds R      =  %d      (minimal with (Rn)! >= classes)\n"
      (Mediator.Lemma68.min_padding_rounds ~n ~r);
    Printf.printf "  paper closed form     =  (4rn)^(4rn) ~ 10^%.0f\n"
      (Mediator.Lemma68.log10_r_closed_form ~n ~r);
    if n * r <= 6 then
      Printf.printf "  exact pattern count   =  %d\n" (Mediator.Lemma68.count_patterns_exact ~n ~r)
  in
  Cmd.v (Cmd.info "lemma68" ~doc) Term.(const run $ n_arg $ r_arg)

(* --- lint --- *)

let lint_cmd =
  let doc =
    "Run the analysis layer over the bundled examples: circuit linter, threshold validator, \
     effect-discipline linter (instrumented runs) and the DPOR model checker over the schedule \
     targets. Exits non-zero when any error-severity finding is reported."
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"also print warnings") in
  let seeded_bug_arg =
    Arg.(
      value & flag
      & info [ "seeded-bug" ]
          ~doc:"include the deliberately order-dependent fixture (must make lint fail)")
  in
  let run verbose seeded_bug =
    let module F = Analysis.Finding in
    let total_errors = ref 0 in
    let total_warnings = ref 0 in
    let section name findings =
      let errs, warns = F.count findings in
      total_errors := !total_errors + errs;
      total_warnings := !total_warnings + warns;
      Printf.printf "%-12s %d error%s, %d warning%s\n" name errs
        (if errs = 1 then "" else "s")
        warns
        (if warns = 1 then "" else "s");
      List.iter
        (fun f ->
          if F.is_error f || verbose then Format.printf "  %a@." F.pp f)
        findings
    in

    (* 1. circuit linter: catalog specs, builder circuits, generator output *)
    let circuit_findings =
      List.concat_map (fun (name, mk) ->
          List.map
            (fun f -> { f with F.subject = name ^ ": " ^ f.F.subject })
            (Analysis.Circuit_lint.check_spec (mk ())))
        specs
      @ List.concat_map
          (fun (name, c) ->
            List.map
              (fun f -> { f with F.subject = name ^ ": " ^ f.F.subject })
              (F.errors (Analysis.Circuit_lint.check c)))
          [
            ("identity", Circuit.identity_selector ~n_inputs:5);
            ("sum", Circuit.sum ~n_inputs:5);
            ("majority", Circuit.majority ~n_inputs:5);
            ("coin+input", Circuit.coin_plus_input ~n_inputs:5);
            ( "random(seed=9)",
              Circuit.random_circuit (Random.State.make [| 9 |]) ~n_inputs:3 ~n_random:2
                ~n_gates:20 ~n_outputs:3 );
          ]
    in
    section "circuits" circuit_findings;

    (* 2. threshold validator: the example configurations compile, and the
       centralised diagnoser agrees with Compile.plan everywhere on a
       (spec, theorem, k, t) grid. *)
    let threshold_findings =
      List.concat_map
        (fun (name, mk) ->
          let spec = mk () in
          let n = spec.Mediator.Spec.game.Games.Game.n in
          List.concat_map
            (fun theorem ->
              List.concat_map
                (fun (k, t) ->
                  let inst =
                    {
                      Analysis.Thresholds.theorem;
                      n;
                      k;
                      t;
                      has_punishment = Option.is_some spec.Mediator.Spec.punishment;
                      multiplies = Circuit.mul_count spec.Mediator.Spec.circuit > 0;
                    }
                  in
                  let diagnosed = F.errors (Analysis.Thresholds.diagnose inst) = [] in
                  let planned =
                    match Cheaptalk.Compile.plan ~spec ~theorem ~k ~t () with
                    | Ok _ -> true
                    | Error _ -> false
                  in
                  if diagnosed <> planned then
                    [
                      F.v ~analyzer:"thresholds"
                        ~subject:
                          (Printf.sprintf "%s %s k=%d t=%d" name
                             (Analysis.Thresholds.name theorem) k t)
                        (Printf.sprintf "diagnose says %s but Compile.plan says %s"
                           (if diagnosed then "ok" else "reject")
                           (if planned then "ok" else "reject"));
                    ]
                  else [])
                [ (0, 0); (0, 1); (1, 0); (1, 1); (2, 2) ])
            Analysis.Thresholds.all)
        specs
    in
    section "thresholds" threshold_findings;

    (* 3. effect-discipline: instrumented mediator-game runs for every
       spec, plus one compiled cheap-talk run *)
    let effect_findings =
      List.concat_map
        (fun (name, mk) ->
          let spec = mk () in
          let n = spec.Mediator.Spec.game.Games.Game.n in
          let t = Analysis.Effect_lint.create ~n:(n + 1) in
          let procs =
            Analysis.Effect_lint.wrap_all t
              (Mediator.Protocol.game_processes ~spec ~types:(Array.make n 0) ~rounds:2
                 ~wait_for:n
                 ~rng:(Random.State.make [| 0xCAFE; 1 |])
                 ())
          in
          let o =
            Sim.Runner.run
              (Sim.Runner.config ~record:true ~mediator:n
                 ~scheduler:(Sim.Scheduler.random_seeded 1) procs)
          in
          Analysis.Effect_lint.check_wills t procs;
          List.map
            (fun f -> { f with F.subject = name ^ ": " ^ f.F.subject })
            (Analysis.Effect_lint.findings t @ Analysis.check_run o))
        specs
      @
      let spec = Mediator.Spec.coordination ~n:5 in
      let plan = Cheaptalk.Compile.plan_exn ~spec ~theorem:Cheaptalk.Compile.T41 ~k:0 ~t:1 () in
      let t = Analysis.Effect_lint.create ~n:5 in
      let procs =
        Analysis.Effect_lint.wrap_all t
          (Cheaptalk.Compile.processes plan ~types:(Array.make 5 0) ~coin_seed:7 ~seed:1)
      in
      let o =
        Sim.Runner.run
          (Sim.Runner.config ~record:true ~scheduler:(Sim.Scheduler.random_seeded 1) procs)
      in
      Analysis.Effect_lint.check_wills t procs;
      List.map
        (fun f -> { f with F.subject = "cheap-talk coordination: " ^ f.F.subject })
        (Analysis.Effect_lint.findings t @ Analysis.check_run o)
    in
    section "effects" effect_findings;

    (* 4. model checker: exhaustive DPOR verdicts over the small fixtures.
       The schedule targets must be outcome-confluent under every
       schedule; the violating fixtures stay behind --seeded-bug. *)
    let mc_over name ?properties ?require_confluence ?relaxed make =
      List.map
        (fun f -> { f with F.subject = name ^ ": " ^ f.F.subject })
        (Analysis.Mc.findings ~subject:"verdict"
           (Analysis.Mc.check ?properties ?require_confluence
              (Analysis.Mc.system ?relaxed make)))
    in
    let mc_findings =
      mc_over "ping-pong" ~require_confluence:true Analysis.Fixtures.ping_pong
      @ mc_over "threshold-sum" ~require_confluence:true Analysis.Fixtures.threshold_sum
      @ mc_over "byzantine-echo" ~require_confluence:true Analysis.Fixtures.byzantine_echo
      @ mc_over "mediator-game" ~require_confluence:true Analysis.Fixtures.mediator_game
      @ mc_over "quorum-n4"
          ~properties:[ Analysis.Fixtures.quorum_validity ]
          (Analysis.Fixtures.quorum_vote ~n:4 ~zeros:1)
      @ mc_over "quorum-n3 (relaxed)" ~relaxed:true
          (Analysis.Fixtures.quorum_vote ~n:3 ~zeros:2)
      @ mc_over "pairs" (Analysis.Fixtures.pairs ~m:3)
      @
      if seeded_bug then
        mc_over "order-bug (seeded)" ~require_confluence:true Analysis.Fixtures.order_bug
        @ mc_over "quorum-n3 (seeded)"
            ~properties:[ Analysis.Fixtures.quorum_validity ]
            (Analysis.Fixtures.quorum_vote ~n:3 ~zeros:2)
      else []
    in
    section "model-check" mc_findings;

    Printf.printf "\nlint: %d error%s, %d warning%s\n" !total_errors
      (if !total_errors = 1 then "" else "s")
      !total_warnings
      (if !total_warnings = 1 then "" else "s");
    if !total_errors > 0 then exit 1
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ verbose_arg $ seeded_bug_arg)

(* --- check: the model checker over the fixture catalog --- *)

let check_cmd =
  let doc =
    "Model-check the fixture catalog: dynamic partial-order reduction (default) with state \
     fingerprinting, deadlock/starvation verdicts and minimized counterexample traces; \
     $(b,--naive) swaps in the Sim.Explore reference enumeration (the backend flags are \
     exclusive). Exits non-zero when any fixture's verdict contradicts its expectation."
  in
  let fixtures_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FIXTURE" ~doc:"fixture names (default: all; see ctmed list)")
  in
  (* one flag, at most once: two backend flags together fail to parse *)
  let backend_arg =
    Arg.(
      value
      & vflag Analysis.Mc.Dpor
          [
            ( Analysis.Mc.Dpor,
              info [ "dpor" ] ~doc:"use partial-order reduction (the default)" );
            (Analysis.Mc.Naive, info [ "naive" ] ~doc:"use the Sim.Explore reference backend");
          ])
  in
  let max_states_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-states" ] ~doc:"search budget override (replays / queued branches)")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc:"worker domains (verdicts are identical at any -j)")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print the full canonical verdict")
  in
  let run names backend max_states jobs verbose =
    if jobs < 1 then (
      Printf.eprintf "ctmed check: -j must be >= 1\n";
      exit 2);
    let module Check = Experiments.Check in
    let names = if names = [] then Check.names else names in
    let failed = ref false in
    Parallel.Pool.with_pool ~domains:jobs (fun pool ->
        List.iter
          (fun name ->
            match Check.find name with
            | None ->
                Printf.printf "%-18s unknown fixture (see ctmed list)\n" name;
                failed := true
            | Some f ->
                let r = f.Check.run ~backend ~pool ?max_states () in
                let s = r.Check.stats in
                Printf.printf
                  "%-18s %s  classes=%d deadlocks=%d runs=%d states=%d stop-cuts=%d%s%s\n"
                  name
                  (if r.Check.ok then if r.Check.pass then "PASS" else "FAIL (expected)"
                   else "UNEXPECTED")
                  r.Check.classes r.Check.deadlocks s.Analysis.Mc.runs s.Analysis.Mc.states
                  s.Analysis.Mc.stop_cuts
                  (if r.Check.exhaustive then "" else " (not exhaustive)")
                  (if s.Analysis.Mc.capped then " (capped)" else "");
                if verbose then print_string r.Check.repr;
                (match r.Check.counterexample with
                | Some ce when verbose || not r.Check.ok -> print_string ce
                | _ -> ());
                if not r.Check.ok then failed := true)
          names);
    if !failed then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ fixtures_arg $ backend_arg $ max_states_arg $ jobs_arg $ verbose_arg)

(* --- serve --- *)

(* Every session runs on the simulator through the sharded session
   engine: seeds 0..N-1 are split into shard ranges over the pool and
   each session compiles a fresh cheap-talk game from (spec, seed), so
   the digest is a pure function of the seeds whatever the shards or -j.
   Completed sessions fold into bounded-memory aggregates as they finish,
   which is the shape that scales to millions of sessions. *)
let serve_cmd =
  let doc = "Serve mediator-game sessions through the sharded session engine." in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "self-check: serve a small batch and verify the digest against a sequential \
             unsharded non-recycled run")
  in
  let sessions_arg =
    Arg.(
      value & opt int 16
      & info [ "sessions" ] ~docv:"N" ~doc:"sessions to serve (seeds 0..N-1)")
  in
  let spec_arg =
    Arg.(
      value
      & opt string "coordination"
      & info [ "spec" ] ~docv:"SPEC" ~doc:"spec name (see ctmed list)")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"domains running shards in parallel")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "split the seeds into $(docv) contiguous shard ranges, the work-stealing \
             units (default: the -j value)")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "make the run crash-restartable: checkpoint every shard's progress into \
             $(docv). A killed run is continued with $(b,--resume) $(docv)")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"DIR"
          ~doc:
            "continue a run from the checkpoints in $(docv); sessions, shards, spec \
             and checkpoint cadence are taken from the journal's manifest (the \
             matching CLI flags are ignored)")
  in
  let checkpoint_arg =
    Arg.(
      value & opt int 1024
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"seeds per checkpoint chunk when --journal is active")
  in
  let show = string_of_int in
  let mk_plan spec =
    let n = spec.Mediator.Spec.game.Games.Game.n in
    let t = if n >= 4 then 1 else 0 in
    Cheaptalk.Compile.plan_memo_exn ~spec ~theorem:Cheaptalk.Compile.T41 ~k:0 ~t ()
  in
  let mk_config plan ~seed =
    let n = plan.Cheaptalk.Compile.spec.Mediator.Spec.game.Games.Game.n in
    let procs =
      Cheaptalk.Compile.processes plan ~types:(Array.make n 0)
        ~coin_seed:(seed * 7919) ~seed
    in
    Sim.Runner.config ~scheduler:(Sim.Scheduler.random_seeded seed) procs
  in
  let serve ~plan ~spec_name ~sessions ~shards ~jobs ~smoke ~journal ~resume
      ~checkpoint_every =
    let make = mk_config plan in
    let profile = Transport.Differential.profile ~show in
    (* graceful shutdown for durable runs: first SIGTERM/SIGINT flips
       the kill switch, the engine persists at the next checkpoint
       boundary and raises Interrupted *)
    let stop = Atomic.make false in
    if journal <> None then begin
      let handle = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      List.iter
        (fun s -> try Sys.set_signal s handle with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigterm; Sys.sigint ]
    end;
    let meta = Obs.Json.Obj [ ("spec", Obs.Json.String spec_name) ] in
    match
      Parallel.Pool.with_pool ~domains:jobs (fun pool ->
          Engine.run ~shards ~pool ?journal ~checkpoint_every ~resume
            ~kill_switch:(fun () -> Atomic.get stop)
            ~on_warning:(fun w -> Printf.eprintf "ctmed serve: warning: %s\n%!" w)
            ~meta ~sessions ~make ~profile ())
    with
    | exception Engine.Interrupted ->
        Printf.printf "interrupted: progress checkpointed; continue with: ctmed serve --resume %s\n"
          (Option.get journal);
        exit 0
    | stats ->
        Printf.printf "served %d/%d sessions (%d shards, -j %d) for %s\n"
          stats.Engine.completed sessions shards jobs spec_name;
        List.iter
          (fun (p, c) -> Printf.printf "  %6d  %s\n" c p)
          stats.Engine.profiles;
        Printf.printf "%s\n" (Engine.throughput_line stats);
        (* the deterministic digest a resumed run must reproduce
           byte-for-byte (make store-check diffs this line) *)
        Printf.printf "digest: %s\n"
          (Digest.to_hex (Digest.string (Engine.det_repr stats)));
        if smoke then begin
          (* the reference run is sequential, unsharded AND non-recycled:
             one comparison covers both the sharding contract and the
             recycled-vs-fresh contract (DESIGN.md section 17) *)
          let reference = Engine.run ~recycle:false ~sessions ~make ~profile () in
          let identical =
            String.equal (Engine.det_repr reference) (Engine.det_repr stats)
          in
          Printf.printf "smoke: aggregate %s sequential unsharded non-recycled run\n"
            (if identical then "byte-identical to" else "DIVERGED from");
          if not identical then exit 1
        end
  in
  let run smoke sessions spec_name jobs shards journal resume_dir checkpoint_every =
    if jobs < 1 || sessions < 1 then begin
      Printf.eprintf "ctmed serve: --jobs/--sessions must be >= 1\n";
      exit 2
    end;
    if (match shards with Some s -> s < 1 | None -> false) then begin
      Printf.eprintf "ctmed serve: --shards must be >= 1\n";
      exit 2
    end;
    if checkpoint_every < 1 then begin
      Printf.eprintf "ctmed serve: --checkpoint-every must be >= 1\n";
      exit 2
    end;
    if journal <> None && resume_dir <> None then begin
      Printf.eprintf "ctmed serve: --journal and --resume are mutually exclusive\n";
      exit 2
    end;
    (* a resume takes every deterministic parameter from the journal's
       manifest — only -j (environmental) still comes from the CLI *)
    let spec_name, sessions, shards, journal, resume, checkpoint_every =
      match resume_dir with
      | None ->
          let shards = Option.value shards ~default:jobs in
          (spec_name, sessions, shards, journal, false, checkpoint_every)
      | Some dir ->
          let manifest =
            try Engine.load_manifest ~dir
            with Failure msg ->
              Printf.eprintf "ctmed serve: %s\n" msg;
              exit 1
          in
          let field name conv =
            match Option.bind (Obs.Json.member name manifest) conv with
            | Some v -> v
            | None ->
                Printf.eprintf
                  "ctmed serve: unrecoverable journal %s: manifest field %S missing or \
                   malformed\n"
                  dir name;
                exit 1
          in
          let spec =
            match
              Option.bind (Obs.Json.member "workload" manifest) (fun w ->
                  Option.bind (Obs.Json.member "spec" w) Obs.Json.to_string_opt)
            with
            | Some s -> s
            | None ->
                Printf.eprintf
                  "ctmed serve: unrecoverable journal %s: manifest has no \
                   workload.spec\n"
                  dir;
                exit 1
          in
          ( spec,
            field "sessions" Obs.Json.to_int_opt,
            field "shards" Obs.Json.to_int_opt,
            Some dir,
            true,
            field "checkpoint_every" Obs.Json.to_int_opt )
    in
    match List.assoc_opt spec_name specs with
    | None ->
        Printf.eprintf "ctmed serve: unknown spec %s (try: ctmed list)\n" spec_name;
        exit 1
    | Some mk -> (
        match mk_plan (mk ()) with
        | exception (Failure msg | Invalid_argument msg) ->
            Printf.eprintf "ctmed serve: cannot compile %s: %s\n" spec_name msg;
            exit 2
        | plan ->
            let sessions = if smoke then min sessions 8 else sessions in
            serve ~plan ~spec_name ~sessions ~shards ~jobs ~smoke ~journal ~resume
              ~checkpoint_every)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ smoke_arg $ sessions_arg $ spec_arg $ jobs_arg $ shards_arg
      $ journal_arg $ resume_arg $ checkpoint_arg)

(* --- replay --- *)

(* Deterministic time-travel over a durable run: rebuild the exact
   config — its seeded scheduler included — from the store's metadata
   record, re-run it with every decision checked against the recorded
   journal, and (for a clean, full replay) cross-check the reproduced
   trace and metrics against the recorded ones. Exit convention: 2
   usage, 1 unrecoverable/diverged, 0 otherwise — a recovered torn tail
   still replays and exits 0 with a warning on stderr. *)
let replay_cmd =
  let doc =
    "Replay a journaled run from its trace store (written by $(b,ctmed run --journal)): \
     re-run the run's own config, rebuilt from the store's metadata, and check every \
     decision against the recorded journal. $(b,--at K) stops after the first K decisions \
     and freezes the world there (time travel). A store with a torn final record is \
     recovered — truncated back to the last valid record — and replayed with a warning; \
     an unrecoverable store exits 1."
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"trace store written by ctmed run --journal")
  in
  let at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "at" ] ~docv:"K"
          ~doc:"replay only the first $(docv) decisions and freeze (time travel)")
  in
  let limit_arg =
    Arg.(value & opt int 60 & info [ "limit" ] ~doc:"max chart events to print")
  in
  let run file at limit =
    let path =
      match file with
      | Some p -> p
      | None ->
          Printf.eprintf
            "ctmed replay: missing FILE (a store written by ctmed run --journal)\n";
          exit 2
    in
    (match at with
    | Some k when k < 0 ->
        Printf.eprintf "ctmed replay: --at %d: decision count must be >= 0\n" k;
        exit 2
    | _ -> ());
    let r, recovery =
      try Store.Reader.open_ path with
      | Store.Corrupt msg ->
          Printf.eprintf "ctmed replay: %s: unrecoverable store: %s\n" path msg;
          exit 1
      | Sys_error msg ->
          Printf.eprintf "ctmed replay: %s\n" msg;
          exit 1
    in
    let recovered =
      match recovery with
      | Store.Clean -> false
      | Store.Recovered { valid_records; dropped_bytes } ->
          Printf.eprintf
            "ctmed replay: warning: %s: torn final record (%d bytes dropped); \
             recovered %d valid records\n"
            path dropped_bytes valid_records;
          true
    in
    let meta = Store.Reader.meta r in
    let bad what =
      Printf.eprintf "ctmed replay: %s: %s\n" path what;
      exit 1
    in
    let str name =
      match Option.bind (Obs.Json.member name meta) Obs.Json.to_string_opt with
      | Some s -> s
      | None -> bad (Printf.sprintf "metadata field %S missing or malformed" name)
    in
    let int_field name =
      match Option.bind (Obs.Json.member name meta) Obs.Json.to_int_opt with
      | Some i -> i
      | None -> bad (Printf.sprintf "metadata field %S missing or malformed" name)
    in
    let format = str "format" in
    if format <> "ctmed-run" then bad ("unknown store format " ^ format);
    let spec_name = str "spec" in
    let theorem =
      match theorem_of_token (str "theorem") with
      | Some th -> th
      | None -> bad ("unknown theorem token " ^ str "theorem")
    in
    let k = int_field "k" in
    let t = int_field "t" in
    let seed = int_field "seed" in
    let faults =
      match Obs.Json.member "faults" meta with
      | None | Some Obs.Json.Null -> None
      | Some (Obs.Json.String s) -> (
          match Faults.of_string s with
          | c -> Some c
          | exception Invalid_argument msg -> bad ("bad faults field: " ^ msg))
      | Some _ -> bad "malformed faults field"
    in
    let fuel =
      match Obs.Json.member "fuel" meta with
      | None | Some Obs.Json.Null -> None
      | Some j -> (
          match Obs.Json.to_int_opt j with
          | Some f -> Some f
          | None -> bad "malformed fuel field")
    in
    match List.assoc_opt spec_name specs with
    | None -> bad ("metadata names unknown spec " ^ spec_name)
    | Some mk -> (
        match Cheaptalk.Compile.plan ~spec:(mk ()) ~theorem ~k ~t () with
        | Error e -> bad ("cannot recompile the run: " ^ e)
        | Ok plan -> (
            let entries = Store.Reader.entries r in
            let total = Array.length entries in
            let upto = Option.map (fun k -> min k total) at in
            let cfg = journal_config ~plan ~seed ~faults ~fuel in
            match Sim.Runner.replay ?upto ~entries cfg with
            | exception Sim.Runner.Replay_mismatch msg ->
                Printf.eprintf "ctmed replay: %s: replay diverged from the journal: %s\n"
                  path msg;
                exit 1
            | o ->
                Printf.printf "replayed %d/%d decisions from %s (%s via %s, seed %d)\n"
                  (Option.value upto ~default:total)
                  total path spec_name
                  (Cheaptalk.Compile.theorem_name theorem)
                  seed;
                print_string (Sim.Trace_pp.chart ~limit o);
                Format.printf "%a@." Sim.Trace_pp.pp_stats (Sim.Trace_pp.stats o);
                (* cross-check full clean replays against what the
                   original run recorded *)
                if (not recovered) && at = None then begin
                  let trace_ok =
                    match (Store.Reader.events r, Store.Reader.metrics r) with
                    | [], None -> true (* run was killed before the trace was appended *)
                    | stored, _ -> stored = o.Sim.Types.trace
                  in
                  let metrics_ok =
                    match Store.Reader.metrics r with
                    | None -> true
                    | Some m ->
                        String.equal (Obs.Metrics.det_repr m)
                          (Obs.Metrics.det_repr o.Sim.Types.metrics)
                  in
                  if not (trace_ok && metrics_ok) then begin
                    Printf.eprintf
                      "ctmed replay: %s: replayed %s differ from the stored ones\n" path
                      (if trace_ok then "metrics" else "trace events");
                    exit 1
                  end;
                  Printf.printf "verified: replay matches the stored trace and metrics\n"
                end;
                Store.Reader.close r))
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg $ at_arg $ limit_arg)

let micro_cmd =
  let doc = "Substrate micro-benchmarks (Bechamel)." in
  Cmd.v
    (Cmd.info "micro" ~doc)
    Term.(const (fun () -> ignore (Experiments.Micro.run ())) $ const ())

let main =
  let doc = "implementing mediators with asynchronous cheap talk" in
  Cmd.group (Cmd.info "ctmed" ~doc)
    [
      list_cmd;
      run_cmd;
      check_cmd;
      lint_cmd;
      mediator_cmd;
      trace_cmd;
      lemma68_cmd;
      experiment_cmd;
      serve_cmd;
      replay_cmd;
      micro_cmd;
    ]

let () = exit (Cmd.eval main)
