(* The durability layer (ISSUE: durable-runs PR): the streaming trace
   store (round-trip, torn-write recovery, sparse-index random access),
   the decision journal as a checkpoint (resume byte-identity at every
   split point, with and without faults, across a mediator batch
   boundary), replay by re-running the journal's own config (time
   travel, and the mismatches it catches), and the engine's
   crash-restart supervisor (kill-switch interrupt, shard checkpoint
   corruption, manifest validation). *)

module T = Sim.Types
module Runner = Sim.Runner
module Scheduler = Sim.Scheduler
module J = Runner.Journal

let no_will () = None

let tmpfile () = Filename.temp_file "ctst" ".store"

let tmpdir () =
  let f = Filename.temp_file "ctmed" ".journal" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rm_rf path = if Sys.file_exists path then rm_rf path

(* ------------------------------------------------------------------ *)
(* Store round-trip and random access *)

let sample_entries =
  [|
    J.Chose { J.src = 0; dst = 1; seq = 1 };
    J.Forced { J.src = 2; dst = 0; seq = 3 };
    J.Fallback (J.Invalid, Some { J.src = 1; dst = 1; seq = 2 });
    J.Fallback (J.Sched_exn, None);
    J.Stopped;
    J.Watchdog;
  |]

let test_round_trip () =
  let path = tmpfile () in
  let meta = Obs.Json.Obj [ ("x", Obs.Json.Int 7) ] in
  let w = Store.Writer.create ~path ~meta in
  Array.iter (Store.Writer.entry w) sample_entries;
  Store.Writer.event w (T.Sent { src = 0; dst = 1; seq = 1 });
  Store.Writer.event w (T.Fault { kind = T.Delay; src = -1; dst = 2; seq = 9 });
  Store.Writer.metrics w Obs.Metrics.zero;
  Store.Writer.append w (Store.Raw (77, "blob"));
  let n = Store.Writer.records w in
  Store.Writer.close w;
  let r, recovery = Store.Reader.open_ path in
  Alcotest.(check bool) "clean open" true (recovery = Store.Clean);
  Alcotest.(check int) "record count" n (Store.Reader.records r);
  Alcotest.(check int) "records = meta + 6 + 2 + 1 + 1" 11 n;
  Alcotest.(check bool) "meta preserved" true (Store.Reader.meta r = meta);
  Alcotest.(check bool) "entries round-trip" true (Store.Reader.entries r = sample_entries);
  Alcotest.(check int) "events round-trip" 2 (List.length (Store.Reader.events r));
  (match Store.Reader.metrics r with
  | Some m ->
      Alcotest.(check string) "metrics round-trip"
        (Obs.Metrics.det_repr Obs.Metrics.zero)
        (Obs.Metrics.det_repr m)
  | None -> Alcotest.fail "metrics record lost");
  (match Store.Reader.get r (n - 1) with
  | Store.Raw (77, "blob") -> ()
  | _ -> Alcotest.fail "raw record mangled");
  (* iter and get agree record by record *)
  Store.Reader.iter
    (fun i rec_ ->
      Alcotest.(check bool)
        (Printf.sprintf "get %d = iter %d" i i)
        true
        (Store.Reader.get r i = rec_))
    r;
  (match Store.Reader.get r n with
  | _ -> Alcotest.fail "out-of-range get accepted"
  | exception Invalid_argument _ -> ());
  Store.Reader.close r;
  Sys.remove path

let write_n_entries path n =
  let w =
    Store.Writer.create ~path ~meta:(Obs.Json.Obj [ ("n", Obs.Json.Int n) ])
  in
  for i = 0 to n - 1 do
    Store.Writer.entry w (J.Chose { J.src = i mod 7; dst = (i / 7) mod 7; seq = i })
  done;
  Store.Writer.close w

let test_sparse_index () =
  let path = tmpfile () in
  let n = 600 in
  (* > 2 * index_every: random access must cross indexed offsets *)
  Alcotest.(check bool) "test spans the index stride" true (n > 2 * Store.index_every);
  write_n_entries path n;
  let r, recovery = Store.Reader.open_ path in
  Alcotest.(check bool) "clean" true (recovery = Store.Clean);
  let by_iter = Array.make (n + 1) None in
  Store.Reader.iter (fun i rec_ -> by_iter.(i) <- Some rec_) r;
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "get %d matches iter" i)
        true
        (Some (Store.Reader.get r i) = by_iter.(i)))
    [ 0; 1; 255; 256; 257; 300; 511; 512; 599 ];
  Store.Reader.close r;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Torn writes and corruption *)

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let truncate_by path k =
  let size = file_size path in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - k);
  Unix.close fd

let flip_byte path pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_torn_tail_recovers () =
  (* SIGKILL mid-write: the last record is half on disk. Open must
     detect it, truncate back, and a second open must be Clean. *)
  List.iter
    (fun cut ->
      let path = tmpfile () in
      write_n_entries path 20;
      truncate_by path cut;
      let r, recovery = Store.Reader.open_ path in
      (match recovery with
      | Store.Recovered { valid_records; dropped_bytes } ->
          Alcotest.(check int)
            (Printf.sprintf "cut %d: one record lost" cut)
            20 valid_records;
          Alcotest.(check bool) "dropped something" true (dropped_bytes > 0)
      | Store.Clean -> Alcotest.fail (Printf.sprintf "cut %d: not detected" cut));
      Store.Reader.close r;
      let r2, recovery2 = Store.Reader.open_ path in
      Alcotest.(check bool)
        (Printf.sprintf "cut %d: clean after recovery" cut)
        true
        (recovery2 = Store.Clean);
      Alcotest.(check int) "prefix preserved" 20 (Store.Reader.records r2);
      Store.Reader.close r2;
      Sys.remove path)
    [ 1; 3; 8 ]

let test_mid_file_corruption_recovers_prefix () =
  let path = tmpfile () in
  write_n_entries path 40;
  let size = file_size path in
  flip_byte path (size / 2);
  let r, recovery = Store.Reader.open_ path in
  let valid =
    match recovery with
    | Store.Recovered { valid_records; _ } -> valid_records
    | Store.Clean -> Alcotest.fail "corruption not detected"
  in
  Alcotest.(check bool) "kept a proper non-empty prefix" true (valid >= 1 && valid < 41);
  Store.Reader.close r;
  let r2, recovery2 = Store.Reader.open_ path in
  Alcotest.(check bool) "clean after recovery" true (recovery2 = Store.Clean);
  Alcotest.(check int) "prefix preserved" valid (Store.Reader.records r2);
  Store.Reader.close r2;
  Sys.remove path

let test_unrecoverable () =
  (* a destroyed header or metadata record cannot be recovered from *)
  let check_corrupt name damage =
    let path = tmpfile () in
    write_n_entries path 5;
    damage path;
    (match Store.Reader.open_ path with
    | _ -> Alcotest.fail (name ^ ": expected Corrupt")
    | exception Store.Corrupt _ -> ());
    Sys.remove path
  in
  check_corrupt "bad magic" (fun p -> flip_byte p 0);
  check_corrupt "bad version" (fun p -> flip_byte p 4);
  check_corrupt "destroyed meta" (fun p -> flip_byte p 13);
  check_corrupt "header only" (fun p ->
      let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd 8;
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* The journal as a checkpoint: resume byte-identity *)

(* A branching ping-pong world: every pair channel bounces [rounds]
   payloads, so the random scheduler faces many concurrent channels and
   the journal genuinely pins the interleaving. Fresh closures per call
   — the trial contract resume depends on. *)
let mk_world ?(n = 4) ?(rounds = 3) () : (int, int) T.process array =
  Array.init n (fun me ->
      let moved = ref false in
      {
        T.start =
          (fun () -> List.init (n - 1) (fun k -> T.Send ((me + 1 + k) mod n, 0)));
        receive =
          (fun ~src j ->
            if j < rounds then [ T.Send (src, j + 1) ]
            else if !moved then []
            else begin
              moved := true;
              [ T.Move (me + (10 * j)); T.Halt ]
            end);
        will = no_will;
      })

(* Recorded, as [ctmed run --journal] records: [same_outcome] compares
   traces. *)
let mk_cfg ?faults seed =
  let fplan = Option.map (Faults.Plan.make ~seed) faults in
  Runner.config ~record:true ~scheduler:(Scheduler.random_seeded seed) ?faults:fplan
    (mk_world ())

let same_outcome what (a : int T.outcome) (b : int T.outcome) =
  Alcotest.(check bool) (what ^ ": moves") true (a.T.moves = b.T.moves);
  Alcotest.(check bool) (what ^ ": termination") true (a.T.termination = b.T.termination);
  Alcotest.(check int) (what ^ ": sent") a.T.messages_sent b.T.messages_sent;
  Alcotest.(check int) (what ^ ": delivered") a.T.messages_delivered
    b.T.messages_delivered;
  Alcotest.(check int) (what ^ ": steps") a.T.steps b.T.steps;
  Alcotest.(check bool) (what ^ ": trace") true
    (Runner.recorded_trace ~who:what a = Runner.recorded_trace ~who:what b);
  Alcotest.(check bool) (what ^ ": halted") true (a.T.halted = b.T.halted);
  Alcotest.(check string) (what ^ ": metrics")
    (Obs.Metrics.det_repr a.T.metrics)
    (Obs.Metrics.det_repr b.T.metrics)

let journal_run cfg =
  let acc = ref [] in
  let o = Runner.run_journaled ~emit:(fun e -> acc := e :: !acc) cfg in
  (o, Array.of_list (List.rev !acc))

let test_journaled_equals_plain () =
  List.iter
    (fun seed ->
      let o, entries = journal_run (mk_cfg seed) in
      same_outcome "journaled vs plain" o (Runner.run (mk_cfg seed));
      Alcotest.(check int)
        (Printf.sprintf "seed %d: one entry per decision" seed)
        o.T.steps
        (Array.length
           (Array.of_seq
              (Seq.filter
                 (function
                   | J.Forced _ | J.Chose _ | J.Fallback (_, Some _) -> true
                   | _ -> false)
                 (Array.to_seq entries)))))
    [ 1; 2; 5 ]

let test_resume_byte_identical_at_every_split () =
  (* kill the run after k decisions for EVERY k: restoring from the
     journal prefix must reproduce the uninterrupted run exactly *)
  List.iter
    (fun seed ->
      let full, entries = journal_run (mk_cfg seed) in
      for k = 0 to Array.length entries do
        let o = Runner.resume ~entries:(Array.sub entries 0 k) (mk_cfg seed) in
        same_outcome (Printf.sprintf "seed %d split %d" seed k) full o
      done)
    [ 1; 2; 5 ]

let test_resume_emit_completes_the_journal () =
  let seed = 2 in
  let _, entries = journal_run (mk_cfg seed) in
  let k = Array.length entries / 2 in
  let tail = ref [] in
  let _ =
    Runner.resume
      ~entries:(Array.sub entries 0 k)
      ~emit:(fun e -> tail := e :: !tail)
      (mk_cfg seed)
  in
  let stitched = Array.append (Array.sub entries 0 k) (Array.of_list (List.rev !tail)) in
  Alcotest.(check bool) "prefix + emitted tail = original journal" true
    (stitched = entries)

let test_resume_with_faults_across_boundary () =
  (* fault-plan windows (delay pins, crash windows, duplicates) must
     survive the checkpoint boundary: the plan is rebuilt from the seed
     and the journal pins the same interleaving through it *)
  let faults =
    Faults.make ~dup:0.15 ~corrupt:0.1 ~delay:0.2 ~crash:0.1 ~delay_decisions:5
      ~crash_window:4 ()
  in
  List.iter
    (fun seed ->
      let full, entries = journal_run (mk_cfg ~faults seed) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: plan actually injected" seed)
        true
        (Obs.Metrics.injected_total full.T.metrics > 0);
      let len = Array.length entries in
      List.iter
        (fun k ->
          let o = Runner.resume ~entries:(Array.sub entries 0 k) (mk_cfg ~faults seed) in
          same_outcome (Printf.sprintf "faults seed %d split %d" seed k) full o)
        [ 0; 1; len / 3; len / 2; len - 1; len ])
    [ 3; 4; 7 ]

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

let test_resume_across_mediator_batch_boundary () =
  (* satellite: kill mid-batch, restore, and the Section 5 STOP-batch
     atomicity rule (the Lemma 6.10 path) must still complete the batch
     — plus the conservation law sent = delivered + dropped *)
  let mk () =
    let got0 = ref false and got1 = ref false in
    Runner.config ~record:true ~mediator:2
      ~scheduler:(Scheduler.relaxed_stop_after 4)
      ~faults:
        (Faults.Plan.custom
           ~config:(Faults.make ~delay_decisions:10_000 ())
           (fun ~src ~dst ~seq ->
             if (src, dst, seq) = (2, 1, 1) then Some Faults.Delay else None))
      (mediator_batch_world got0 got1)
  in
  let full, entries = journal_run (mk ()) in
  Alcotest.(check int) "batch atomic in the original" 2 full.T.messages_delivered;
  for k = 0 to Array.length entries do
    let o = Runner.resume ~entries:(Array.sub entries 0 k) (mk ()) in
    same_outcome (Printf.sprintf "batch split %d" k) full o;
    Alcotest.(check int)
      (Printf.sprintf "batch split %d: STOP-batch atomicity" k)
      2 o.T.messages_delivered;
    let m = o.T.metrics in
    Alcotest.(check int)
      (Printf.sprintf "batch split %d: conservation" k)
      (Obs.Metrics.sent_total m)
      (Obs.Metrics.delivered_total m + Obs.Metrics.dropped_total m)
  done

let test_replay_reproduces_the_run () =
  (* replay re-runs the journal's own config, scheduler included, and
     checks every decision against the journal *)
  List.iter
    (fun seed ->
      let full, entries = journal_run (mk_cfg seed) in
      let o = Runner.replay ~entries (mk_cfg seed) in
      same_outcome (Printf.sprintf "replay seed %d" seed) full o)
    [ 1; 2; 5 ]

let test_replay_prefix_freezes () =
  let seed = 5 in
  let full, entries = journal_run (mk_cfg seed) in
  let total = Array.length entries in
  let prev_events = ref (-1) in
  List.iter
    (fun k ->
      let o = Runner.replay ~upto:k ~entries (mk_cfg seed) in
      if k < total then
        Alcotest.(check bool)
          (Printf.sprintf "upto %d freezes as Cutoff" k)
          true
          (o.T.termination = T.Cutoff)
      else same_outcome "full upto" full o;
      (* the frozen state is a prefix of the full run *)
      let events = List.length o.T.trace in
      Alcotest.(check bool)
        (Printf.sprintf "upto %d: trace grows monotonically" k)
        true
        (events >= !prev_events);
      prev_events := events;
      Alcotest.(check bool)
        (Printf.sprintf "upto %d: trace is a prefix" k)
        true
        (o.T.trace
        = List.filteri (fun i _ -> i < events) full.T.trace))
    [ 0; 1; total / 2; total - 1; total ];
  match Runner.replay ~upto:(-1) ~entries (mk_cfg seed) with
  | _ -> Alcotest.fail "negative upto accepted"
  | exception Invalid_argument _ -> ()

let test_replay_mismatch_detected () =
  let _, entries = journal_run (mk_cfg 1) in
  (* wrong seed: different coin flips, different interleaving *)
  (match Runner.resume ~entries (mk_cfg 99) with
  | _ -> Alcotest.fail "resume against the wrong config accepted"
  | exception Runner.Replay_mismatch _ -> ());
  match
    Runner.replay ~entries
      (Runner.config ~scheduler:(Scheduler.random_seeded 1) (mk_world ~rounds:1 ()))
  with
  | _ -> Alcotest.fail "replay against the wrong world accepted"
  | exception Runner.Replay_mismatch _ -> ()

let test_replay_wrong_scheduler_detected () =
  (* same world, same seed for the world, another scheduler: the journal
     no longer describes the run *)
  let _, entries = journal_run (mk_cfg 1) in
  match
    Runner.replay ~entries
      (Runner.config ~scheduler:(Scheduler.random_seeded 2) (mk_world ()))
  with
  | _ -> Alcotest.fail "replay under the wrong scheduler accepted"
  | exception Runner.Replay_mismatch _ -> ()

let test_surplus_entries_detected () =
  (* an entry past the run's end is not silently ignored, by replay or
     by resume *)
  let _, entries = journal_run (mk_cfg 1) in
  let padded = Array.append entries [| entries.(Array.length entries - 1) |] in
  (match Runner.replay ~entries:padded (mk_cfg 1) with
  | _ -> Alcotest.fail "replay of a journal longer than its run accepted"
  | exception Runner.Replay_mismatch _ -> ());
  match Runner.resume ~entries:padded (mk_cfg 1) with
  | _ -> Alcotest.fail "resume of a journal longer than its run accepted"
  | exception Runner.Replay_mismatch _ -> ()

let test_stored_watchdog_ends_the_replay () =
  (* a stored Watchdog ends the replay where it stands, whatever the
     rebuilt config's watchdogs say: a wall-clock journal replays on
     any host *)
  let seed = 1 in
  let fueled =
    Runner.config ~record:true ~fuel:10 ~scheduler:(Scheduler.random_seeded seed)
      (mk_world ())
  in
  let full, entries = journal_run fueled in
  Alcotest.(check bool) "the fuel fired" true (full.T.termination = T.Timed_out);
  Alcotest.(check bool) "the journal ends on the watchdog" true
    (J.equal entries.(Array.length entries - 1) J.Watchdog);
  same_outcome "replay without fuel" full (Runner.replay ~entries (mk_cfg seed))

(* ------------------------------------------------------------------ *)
(* Store + journal end to end: the ctmed run --journal shape *)

let test_store_journal_end_to_end () =
  let path = tmpfile () in
  let seed = 2 in
  let w = Store.Writer.create ~path ~meta:(Obs.Json.Obj [ ("seed", Obs.Json.Int seed) ]) in
  let o = Runner.run_journaled ~emit:(Store.Writer.entry w) (mk_cfg seed) in
  List.iter (Store.Writer.event w) o.T.trace;
  Store.Writer.metrics w o.T.metrics;
  Store.Writer.close w;
  (* tear the tail, recover, and the surviving journal still resumes *)
  truncate_by path 2;
  let r, recovery = Store.Reader.open_ path in
  Alcotest.(check bool) "recovered" true (recovery <> Store.Clean);
  let entries = Store.Reader.entries r in
  Store.Reader.close r;
  let o' = Runner.resume ~entries (mk_cfg seed) in
  same_outcome "recovered store resumes deterministically" o o';
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Engine crash-restart supervisor *)

let toy_make ~seed = Engine.Toy.config ~seed ()
let toy_profile = Engine.Toy.profile

let test_engine_interrupt_then_resume () =
  let dir = tmpdir () in
  let uninterrupted =
    Engine.run ~sessions:60 ~make:toy_make ~profile:toy_profile ()
  in
  let polls = ref 0 in
  (match
     Engine.run ~journal:dir ~shards:3 ~checkpoint_every:8
       ~kill_switch:(fun () ->
         incr polls;
         !polls > 3)
       ~sessions:60 ~make:toy_make ~profile:toy_profile ()
   with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Engine.Interrupted -> ());
  Alcotest.(check bool) "manifest persisted" true
    (Sys.file_exists (Filename.concat dir "manifest.json"));
  let resumed =
    Engine.run ~journal:dir ~resume:true ~shards:3 ~checkpoint_every:8 ~sessions:60
      ~make:toy_make ~profile:toy_profile ()
  in
  Alcotest.(check string) "resumed det_repr byte-identical"
    (Engine.det_repr uninterrupted)
    (Engine.det_repr resumed);
  (* resuming the now-finished journal re-runs nothing and agrees *)
  let again =
    Engine.run ~journal:dir ~resume:true ~shards:3 ~checkpoint_every:8 ~sessions:60
      ~make:toy_make ~profile:toy_profile ()
  in
  Alcotest.(check string) "finished journal still agrees"
    (Engine.det_repr uninterrupted)
    (Engine.det_repr again);
  rm_rf dir;
  (* a journal interrupted on the Live backend, whose manifest names
     that backend as older versions wrote it, resumes at the default
     backend: resume ignores the field, and the two backends run the
     same sessions *)
  let dir = tmpdir () in
  let polls = ref 0 in
  (match
     Engine.run ~backend:Transport.Backend.Live ~journal:dir ~shards:3 ~checkpoint_every:8
       ~kill_switch:(fun () ->
         incr polls;
         !polls > 3)
       ~sessions:60 ~make:toy_make ~profile:toy_profile ()
   with
  | _ -> Alcotest.fail "expected Interrupted"
  | exception Engine.Interrupted -> ());
  let manifest = Filename.concat dir "manifest.json" in
  (match Obs.Json.of_file manifest with
  | Obs.Json.Obj fields ->
      Store.write_json_atomic ~path:manifest
        (Obs.Json.Obj
           (("backend", Obs.Json.String "live")
           :: List.filter (fun (k, _) -> not (String.equal k "backend")) fields))
  | _ -> Alcotest.fail "manifest is not an object");
  let resumed =
    Engine.run ~journal:dir ~resume:true ~shards:3 ~checkpoint_every:8 ~sessions:60
      ~make:toy_make ~profile:toy_profile ()
  in
  Alcotest.(check string) "live-written journal resumes as sim"
    (Engine.det_repr uninterrupted)
    (Engine.det_repr resumed);
  rm_rf dir

let test_engine_corrupt_shard_recomputed () =
  let dir = tmpdir () in
  let reference =
    Engine.run ~sessions:40 ~make:toy_make ~profile:toy_profile ()
  in
  let _ =
    Engine.run ~journal:dir ~shards:2 ~checkpoint_every:4 ~sessions:40 ~make:toy_make
      ~profile:toy_profile ()
  in
  (* damage one shard checkpoint; resume must warn and recompute it *)
  let shard = Filename.concat dir "shard-0001.json" in
  let oc = open_out_bin shard in
  output_string oc "{ not json";
  close_out oc;
  let warnings = ref [] in
  let resumed =
    Engine.run ~journal:dir ~resume:true ~shards:2 ~checkpoint_every:4 ~sessions:40
      ~make:toy_make ~profile:toy_profile
      ~on_warning:(fun w -> warnings := w :: !warnings)
      ()
  in
  Alcotest.(check bool) "warning surfaced" true (!warnings <> []);
  Alcotest.(check string) "recomputed shard, same det_repr"
    (Engine.det_repr reference)
    (Engine.det_repr resumed);
  rm_rf dir

let test_engine_validation () =
  let dir = tmpdir () in
  let _ =
    Engine.run ~journal:dir ~shards:2 ~sessions:20 ~make:toy_make ~profile:toy_profile ()
  in
  (* resume parameters must match the manifest *)
  (match
     Engine.run ~journal:dir ~resume:true ~shards:3 ~sessions:20 ~make:toy_make
       ~profile:toy_profile ()
   with
  | _ -> Alcotest.fail "shard mismatch accepted"
  | exception Invalid_argument _ -> ());
  (match
     Engine.run ~journal:dir ~resume:true ~shards:2 ~sessions:21 ~make:toy_make
       ~profile:toy_profile ()
   with
  | _ -> Alcotest.fail "session mismatch accepted"
  | exception Invalid_argument _ -> ());
  (* resume without a journal is a usage error *)
  (match Engine.run ~resume:true ~sessions:20 ~make:toy_make ~profile:toy_profile () with
  | _ -> Alcotest.fail "resume without journal accepted"
  | exception Invalid_argument _ -> ());
  (* a missing manifest is unrecoverable *)
  Sys.remove (Filename.concat dir "manifest.json");
  (match
     Engine.run ~journal:dir ~resume:true ~shards:2 ~sessions:20 ~make:toy_make
       ~profile:toy_profile ()
   with
  | _ -> Alcotest.fail "missing manifest accepted"
  | exception Failure _ -> ());
  rm_rf dir

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "round-trip + random access" `Quick test_round_trip;
          Alcotest.test_case "sparse index" `Quick test_sparse_index;
          Alcotest.test_case "torn tail recovers" `Quick test_torn_tail_recovers;
          Alcotest.test_case "mid-file corruption keeps prefix" `Quick
            test_mid_file_corruption_recovers_prefix;
          Alcotest.test_case "unrecoverable cases" `Quick test_unrecoverable;
        ] );
      ( "journal",
        [
          Alcotest.test_case "journaled run = plain run" `Quick
            test_journaled_equals_plain;
          Alcotest.test_case "resume byte-identical at every split" `Quick
            test_resume_byte_identical_at_every_split;
          Alcotest.test_case "resume emit completes the journal" `Quick
            test_resume_emit_completes_the_journal;
          Alcotest.test_case "faults survive the boundary" `Quick
            test_resume_with_faults_across_boundary;
          Alcotest.test_case "mediator batch survives the boundary" `Quick
            test_resume_across_mediator_batch_boundary;
          Alcotest.test_case "replay reproduces the run" `Quick
            test_replay_reproduces_the_run;
          Alcotest.test_case "time travel freezes prefixes" `Quick
            test_replay_prefix_freezes;
          Alcotest.test_case "mismatched config detected" `Quick
            test_replay_mismatch_detected;
          Alcotest.test_case "wrong scheduler detected" `Quick
            test_replay_wrong_scheduler_detected;
          Alcotest.test_case "surplus entries detected" `Quick
            test_surplus_entries_detected;
          Alcotest.test_case "stored watchdog ends the replay" `Quick
            test_stored_watchdog_ends_the_replay;
          Alcotest.test_case "store + journal end to end" `Quick
            test_store_journal_end_to_end;
        ] );
      ( "engine",
        [
          Alcotest.test_case "interrupt then resume" `Quick
            test_engine_interrupt_then_resume;
          Alcotest.test_case "corrupt shard recomputed" `Quick
            test_engine_corrupt_shard_recomputed;
          Alcotest.test_case "validation" `Quick test_engine_validation;
        ] );
    ]
