(* THROUGHPUT — the many-session engine's scale table.

   Not a paper claim: an infrastructure experiment. The deterministic
   rows sweep the shard count over the same session range and check the
   engine's determinism contract — the aggregate digest must be
   byte-identical at every shard count and every -j. Rates and latency
   are environmental and are reported by [measure_env] (bench folds
   them into the JSON baseline gate), never in the rows. *)

let sessions_of budget = Common.samples budget 20_000

let make ~seed = Engine.Toy.config ~seed ()

let digest ~ctx ?(recycle = true) ~sessions ~shards () =
  let s =
    Engine.run ~shards ~recycle ~pool:ctx.Common.pool ~sessions ~make
      ~profile:Engine.Toy.profile ()
  in
  (s, Engine.det_repr s)

let run (ctx : Common.ctx) : Common.table =
  let sessions = sessions_of ctx.Common.budget in
  let reference, ref_repr = digest ~ctx ~sessions ~shards:1 () in
  let agg = Obs.Agg.create () in
  Obs.Agg.merge_into ~dst:agg reference.Engine.agg;
  let row ?recycle ~shards () =
    let s, repr = digest ~ctx ?recycle ~sessions ~shards () in
    let ok = String.equal repr ref_repr in
    [
      (if recycle = Some false then "sim/fresh" else "sim");
      string_of_int shards;
      string_of_int s.Engine.sessions;
      string_of_int s.Engine.completed;
      string_of_int (Obs.Metrics.delivered_total (Obs.Agg.total s.Engine.agg));
      (let summary = Obs.Agg.summary s.Engine.agg in
       Printf.sprintf "%d/%d" summary.Obs.Agg.steps.Obs.Agg.p50
         summary.Obs.Agg.steps.Obs.Agg.p99);
      (if ok then "identical" else "DIVERGED");
    ]
  in
  (* the /fresh rows disable session-state recycling: the recycled rows
     above them must match the same reference digest, so the table holds
     the recycled-vs-fresh byte-identity contract (DESIGN.md section 17)
     at every shard shape it sweeps *)
  let rows =
    [
      row ~shards:1 ();
      row ~shards:2 ();
      row ~shards:4 ();
      row ~shards:13 ();
      row ~recycle:false ~shards:4 ();
    ]
  in
  let all_identical =
    List.for_all (fun r -> String.equal (List.nth r 6) "identical") rows
  in
  let all_completed =
    List.for_all (fun r -> String.equal (List.nth r 2) (List.nth r 3)) rows
  in
  {
    Common.id = "THROUGHPUT";
    title = "Sharded multi-session engine: determinism at scale";
    claim =
      "engine aggregates are a pure function of (sessions, seeds): byte-identical \
       at any shard count and -j";
    header = [ "backend"; "shards"; "sessions"; "completed"; "delivered"; "steps p50/p99"; "digest" ];
    rows;
    verdict =
      (if all_identical && all_completed then
         Printf.sprintf "PASS: %d toy sessions, every shard digest identical" sessions
       else if not all_identical then "FAIL: shard digests diverged"
       else "FAIL: sessions lost");
    metrics = Common.metrics_of agg;
    complexity = [];
  }

(* Environmental measurements, deliberately outside the table: a
   single-domain rate run (the gated numbers) plus a scaling sweep to 4
   domains (reported, not gated — on a single-core host the sweep only
   measures oversubscription). *)
type env = {
  sessions_per_min : float;
  messages_per_sec : float;
  p50_us : float;
  p99_us : float;
  words_per_session : float;
      (** GC allocation budget: minor+major words allocated per session,
          from the engine's per-shard [Gc.quick_stat] deltas. Lower is
          better; gated like the rates. *)
  scaling : (int * float) list;  (** domains -> sessions/min *)
}

let measure_env ~budget () =
  let sessions = sessions_of budget in
  let single =
    Engine.run ~sessions ~make ~profile:Engine.Toy.profile ()
  in
  let p50, p99 = Engine.latency_us single in
  let scaling =
    List.map
      (fun domains ->
        let s =
          Parallel.Pool.with_pool ~domains (fun pool ->
              Engine.run ~pool ~shards:(4 * domains) ~sessions ~make
                ~profile:Engine.Toy.profile ())
        in
        (domains, Engine.sessions_per_min s))
      [ 1; 2; 4 ]
  in
  {
    sessions_per_min = Engine.sessions_per_min single;
    messages_per_sec = Engine.messages_per_sec single;
    p50_us = float_of_int p50;
    p99_us = float_of_int p99;
    words_per_session = Engine.words_per_session single;
    scaling;
  }
