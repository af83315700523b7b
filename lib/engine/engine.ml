module Toy = Toy

module Runner = Sim.Runner
module Types = Sim.Types

(* Profile counts are keyed by strings on the per-session hot path; a
   monomorphic hashtable avoids the structural hash/equality fallbacks
   (see the poly-compare lint guard in scripts/). *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

type stats = {
  sessions : int;
  completed : int;
  profiles : (string * int) list;
  agg : Obs.Agg.t;
  latency : Obs.Hist.t;
  wall_s : float;
  alloc_words : float;
}

(* Per-shard accumulator: every completed session folds in immediately,
   so shard memory is O(1) in the number of sessions. All fields are
   insertion-order independent once canonicalised (the profile table is
   key-sorted at merge), which is what makes the merged result
   invariant under shard count and pool size.
   [alloc_words] is environmental (GC words allocated while the shard
   executed on its domain) and excluded from det_repr like wall-clock. *)
type acc = {
  agg : Obs.Agg.t;
  lat : Obs.Hist.t;
  profiles : int Stbl.t;
  mutable completed : int;
  mutable alloc_words : float;
}

let acc_create () =
  {
    agg = Obs.Agg.create ();
    lat = Obs.Hist.create ();
    profiles = Stbl.create 16;
    completed = 0;
    alloc_words = 0.0;
  }

let note acc ~profile ~t0 (o : 'a Types.outcome) =
  Obs.Agg.add_run acc.agg o.Types.metrics;
  Obs.Hist.add acc.lat (int_of_float ((Runner.now () -. t0) *. 1e6));
  (match o.Types.termination with
  | Types.All_halted -> acc.completed <- acc.completed + 1
  | _ -> ());
  let p = profile o in
  let n = match Stbl.find_opt acc.profiles p with Some n -> n | None -> 0 in
  Stbl.replace acc.profiles p (n + 1)

(* A shard's session loop. Each session is one synchronous run to
   completion, on the run function picked here, once per shard:
   Runner.run, or Live.run (Runner.run over fiber-hosted processes).
   With [recycle], the shard's one Runner.Slot carries the driver's
   grown arrays from session to session, so setup stops allocating
   after the first seed (the recycled det_repr is byte-identical — see
   the engine suite in test_transport). Built inside the shard task, so
   the slot never crosses domains. *)
let shard_runner ~backend ~recycle ~make ~profile =
  let slot = if recycle then Some (Runner.Slot.create ()) else None in
  let run =
    match backend with
    | Transport.Backend.Sim -> Runner.run ?slot
    | Transport.Backend.Live -> Transport.Live.run ?slot
  in
  fun ~lo ~hi acc ->
    for seed = lo to hi - 1 do
      let t0 = Runner.now () in
      note acc ~profile ~t0 (run (make ~seed))
    done

(* ------------------------------------------------------------------ *)
(* Crash-restart checkpointing (DESIGN.md section 16). A journal
   directory holds one atomically-replaced JSON file per shard — the
   shard's complete accumulator state plus the next seed to run — and a
   manifest naming the run's deterministic parameters. Restart = reload
   every shard file and continue each shard from its [next] seed:
   within-shard fold order is seed order either way, so the resumed
   det_repr is byte-identical to an uninterrupted run's. *)

exception Interrupted

let manifest_path dir = Filename.concat dir "manifest.json"
let shard_path dir shard = Filename.concat dir (Printf.sprintf "shard-%04d.json" shard)
let backend_name = function Transport.Backend.Sim -> "sim" | Transport.Backend.Live -> "live"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let profiles_sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Stbl.fold (fun k n l -> (k, n) :: l) tbl [])

let save_shard path ~lo ~hi ~next acc =
  Store.write_json_atomic ~path
    (Obs.Json.Obj
       [
         ("lo", Obs.Json.Int lo);
         ("hi", Obs.Json.Int hi);
         ("next", Obs.Json.Int next);
         ("completed", Obs.Json.Int acc.completed);
         ( "profiles",
           Obs.Json.Obj
             (List.map (fun (k, n) -> (k, Obs.Json.Int n)) (profiles_sorted acc.profiles)) );
         ("agg", Obs.Agg.to_json acc.agg);
         ("latency", Obs.Hist.to_json acc.lat);
       ])

(* [Error reason] means "recompute this shard from scratch" — always
   correct, never half-restored. *)
let load_shard path ~lo ~hi =
  match Obs.Json.of_file path with
  | exception Obs.Json.Parse_error m -> Error m
  | exception Sys_error m -> Error m
  | j -> (
      let int k = Option.bind (Obs.Json.member k j) Obs.Json.to_int_opt in
      match (int "lo", int "hi", int "next") with
      | Some l, Some h, Some next when l = lo && h = hi && next >= lo && next <= hi -> (
          let agg = Option.bind (Obs.Json.member "agg" j) Obs.Agg.of_json in
          let lat = Option.bind (Obs.Json.member "latency" j) Obs.Hist.of_json in
          let profs = Option.bind (Obs.Json.member "profiles" j) Obs.Json.to_obj_opt in
          match (agg, lat, int "completed", profs) with
          | Some agg, Some lat, Some completed, Some profs -> (
              let profiles = Stbl.create 16 in
              try
                List.iter
                  (fun (k, v) ->
                    match Obs.Json.to_int_opt v with
                    | Some n -> Stbl.replace profiles k n
                    | None -> raise Exit)
                  profs;
                Ok (next, { agg; lat; profiles; completed; alloc_words = 0.0 })
              with Exit -> Error "bad profile table")
          | _ -> Error "missing or mistyped checkpoint fields")
      | Some _, Some _, Some _ -> Error "checkpoint range does not match this run"
      | _ -> Error "missing lo/hi/next fields")

let load_manifest ~dir =
  let path = manifest_path dir in
  match Obs.Json.of_file path with
  | j -> j
  | exception Obs.Json.Parse_error m -> failwith ("unrecoverable journal: " ^ m)
  | exception Sys_error m -> failwith ("unrecoverable journal: " ^ m)

let run ?(backend = Transport.Backend.Sim) ?(shards = 1) ?(inflight = 1)
    ?(recycle = true) ?(pool = Parallel.Pool.sequential) ?journal
    ?(checkpoint_every = 1024) ?(resume = false) ?(kill_switch = fun () -> false)
    ?(on_warning = fun _ -> ()) ?(meta = Obs.Json.Null) ~sessions ~make ~profile () =
  if sessions < 0 then
    invalid_arg (Printf.sprintf "Engine.run: sessions must be >= 0 (got %d)" sessions);
  if shards < 1 then
    invalid_arg (Printf.sprintf "Engine.run: shards must be > 0 (got %d)" shards);
  if inflight < 1 then
    invalid_arg (Printf.sprintf "Engine.run: inflight must be > 0 (got %d)" inflight);
  if checkpoint_every < 1 then
    invalid_arg
      (Printf.sprintf "Engine.run: checkpoint_every must be > 0 (got %d)" checkpoint_every);
  if resume && journal = None then
    invalid_arg "Engine.run: ~resume requires a ~journal directory";
  (match journal with
  | None -> ()
  | Some dir ->
      if resume then begin
        (* The deterministic parameters must match the original run, or
           the shard ranges (and hence the digest) would change. *)
        let m = load_manifest ~dir in
        let int k = Option.bind (Obs.Json.member k m) Obs.Json.to_int_opt in
        let str k = Option.bind (Obs.Json.member k m) Obs.Json.to_string_opt in
        match (int "sessions", int "shards", str "backend") with
        | Some s, Some sh, Some b ->
            if s <> sessions || sh <> shards || b <> backend_name backend then
              invalid_arg
                (Printf.sprintf
                   "Engine.run: resume parameters (sessions=%d shards=%d backend=%s) do not \
                    match the journal manifest (sessions=%d shards=%d backend=%s)"
                   sessions shards (backend_name backend) s sh b)
        | _ -> failwith "unrecoverable journal: manifest is missing run parameters"
      end
      else begin
        mkdir_p dir;
        Store.write_json_atomic ~path:(manifest_path dir)
          (Obs.Json.Obj
             [
               ("version", Obs.Json.Int 1);
               ("sessions", Obs.Json.Int sessions);
               ("shards", Obs.Json.Int shards);
               ("backend", Obs.Json.String (backend_name backend));
               ("checkpoint_every", Obs.Json.Int checkpoint_every);
               ("workload", meta);
             ])
      end);
  let t0 = Runner.now () in
  let per = if shards = 0 then 0 else (sessions + shards - 1) / shards in
  (* Allocation budget: GC word deltas around one shard's whole
     execution. A shard task runs wholly on one domain and quick_stat's
     allocation counters are domain-local in OCaml 5, so the delta is
     exactly what this shard's sessions (plus its fold) allocated.
     total = minor + major - promoted (promoted words appear in both). *)
  let alloc_delta f acc =
    let g0 = Gc.quick_stat () in
    let r = f () in
    let g1 = Gc.quick_stat () in
    acc.alloc_words <-
      acc.alloc_words
      +. (g1.Gc.minor_words -. g0.Gc.minor_words)
      +. (g1.Gc.major_words -. g0.Gc.major_words)
      -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    r
  in
  (* chunk:1 — shards are the stealing unit, so one slow shard cannot
     serialise the tail behind a fixed pre-assignment *)
  let shard_accs =
    Parallel.Pool.map_seeded ~chunk:1 ~pool ~seeds:(0, shards) (fun shard ->
        let lo = min sessions (shard * per) and hi = min sessions ((shard + 1) * per) in
        let run_range = shard_runner ~backend ~recycle ~make ~profile in
        match journal with
        | None ->
            let acc = acc_create () in
            alloc_delta (fun () -> run_range ~lo ~hi acc) acc;
            (acc, false)
        | Some dir ->
            let path = shard_path dir shard in
            let acc, start =
              if resume && Sys.file_exists path then
                match load_shard path ~lo ~hi with
                | Ok (next, acc) -> (acc, next)
                | Error reason ->
                    on_warning
                      (Printf.sprintf "shard %d checkpoint %s: %s — recomputing shard from \
                                       scratch" shard path reason);
                    (acc_create (), lo)
              else (acc_create (), lo)
            in
            (* Chunked execution: sessions run one at a time in seed
               order, so a checkpoint always describes a seed-prefix of
               the shard. *)
            let next = ref start in
            let stop = ref false in
            while !next < hi && not !stop do
              let chunk_hi = min hi (!next + checkpoint_every) in
              alloc_delta (fun () -> run_range ~lo:!next ~hi:chunk_hi acc) acc;
              next := chunk_hi;
              save_shard path ~lo ~hi ~next:!next acc;
              if kill_switch () then stop := true
            done;
            (acc, !next < hi))
  in
  (* merge on the submitting domain, in shard order *)
  let agg = Obs.Agg.create () in
  let lat = Obs.Hist.create () in
  let profiles = Stbl.create 16 in
  let completed = ref 0 in
  let alloc_words = ref 0.0 in
  Array.iter
    (fun ((a : acc), _) ->
      Obs.Agg.merge_into ~dst:agg a.agg;
      Obs.Hist.merge_into ~dst:lat a.lat;
      completed := !completed + a.completed;
      alloc_words := !alloc_words +. a.alloc_words;
      Stbl.iter
        (fun k n ->
          let m = match Stbl.find_opt profiles k with Some m -> m | None -> 0 in
          Stbl.replace profiles k (m + n))
        a.profiles)
    shard_accs;
  if Array.exists (fun (_, interrupted) -> interrupted) shard_accs then raise Interrupted;
  let profiles = profiles_sorted profiles in
  {
    sessions;
    completed = !completed;
    profiles;
    agg;
    latency = lat;
    wall_s = Runner.now () -. t0;
    alloc_words = !alloc_words;
  }

let det_repr s =
  Printf.sprintf "sessions=%d completed=%d profiles=[%s] agg{%s} metrics{%s}" s.sessions
    s.completed
    (String.concat "; "
       (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) s.profiles))
    (Obs.Agg.summary_repr (Obs.Agg.summary s.agg))
    (Obs.Metrics.det_repr (Obs.Agg.total s.agg))

let sessions_per_min s =
  if s.wall_s > 0.0 then 60.0 *. float_of_int s.sessions /. s.wall_s else 0.0

let messages_per_sec s =
  if s.wall_s > 0.0 then
    float_of_int (Obs.Metrics.delivered_total (Obs.Agg.total s.agg)) /. s.wall_s
  else 0.0

let latency_us s = (Obs.Hist.percentile s.latency 50, Obs.Hist.percentile s.latency 99)

let words_per_session s =
  if s.sessions > 0 then s.alloc_words /. float_of_int s.sessions else 0.0

let throughput_line s =
  let p50, p99 = latency_us s in
  Printf.sprintf
    "%.0f sessions/min  %.0f msgs/sec  latency p50=%dus p99=%dus  %.0f words/session  \
     wall=%.3fs"
    (sessions_per_min s) (messages_per_sec s) p50 p99 (words_per_session s) s.wall_s
