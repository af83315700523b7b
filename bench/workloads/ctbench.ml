(* ctbench — the served-session benchmark (README.md in this directory).

   One invocation runs one workload in this process, on one OCaml
   domain, closed loop: sessions go through the public
   [Engine.run ~shards:1] with the sequential pool, built exactly as
   [ctmed serve --shards 1] builds them. Every session's outcome is
   checked; the last stdout line is the result object
   {correct, attempted, failed, metrics}. *)

module Compile = Cheaptalk.Compile
module Runner = Sim.Runner
module Types = Sim.Types
module Json = Obs.Json

let now = Runner.now

(* ------------------------------------------------------------------ *)
(* Single-line JSON with full float precision (Obs.Json.to_string
   pretty-prints and keeps 6 significant digits). *)

let rec add_json b (v : Json.t) =
  match v with
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Json.Int i -> Buffer.add_string b (string_of_int i)
  | Json.Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Json.String s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' | '\\' ->
              Buffer.add_char b '\\';
              Buffer.add_char b c
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Json.List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add_json b x)
        l;
      Buffer.add_char b ']'
  | Json.Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          add_json b (Json.String k);
          Buffer.add_char b ':';
          add_json b x)
        l;
      Buffer.add_char b '}'

let json_line v =
  let b = Buffer.create 256 in
  add_json b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Tracing: spans recorded around the callbacks this file hands to
   Engine.run — make, each process's start/receive, the scheduler's
   choose, and profile (the session end). Each span's parent is its
   session (id = the session seed); a session's parent is the run. *)

let l_make = 0
let l_start = 1
let l_recv = 2
let l_avss = 3
let l_aba = 4
let l_output = 5
let l_choose = 6
let l_profile = 7
let layer_names = [| "make"; "start"; "receive"; "avss"; "aba"; "output"; "choose"; "profile" |]
let n_layers = Array.length layer_names

(* per-constructor and per-instance delivery counters *)
let c_row = 0
let c_point = 1
let c_ready = 2
let c_bval = 3
let c_aux = 4
let c_decide = 5
let c_avss_input = 6
let c_avss_rand = 7
let c_avss_mul = 8
let c_aba_input = 9
let c_aba_mul = 10
let n_counters = 11

type sess = { id : int; s_count : int array; s_sec : float array }

type tracer = {
  count : int array;  (** spans per layer, all sessions *)
  sec : float array;  (** span seconds per layer, all sessions *)
  ctr : int array;
  rounds : (int * int, int) Hashtbl.t;  (** (session, ABA instance) -> highest round seen *)
  mutable kept : sess list;  (** the first [keep] sessions, newest first *)
  mutable n_sessions : int;
  mutable gap : float;  (** profile end -> next make start *)
  mutable first_make : float;
  mutable last_profile_end : float;
}

(* Per-session trace lines are kept for this many sessions; every
   session is in the run totals. *)
let keep = 10_000

let tracer_create () =
  {
    count = Array.make n_layers 0;
    sec = Array.make n_layers 0.0;
    ctr = Array.make n_counters 0;
    rounds = Hashtbl.create 1024;
    kept = [];
    n_sessions = 0;
    gap = 0.0;
    first_make = 0.0;
    last_profile_end = 0.0;
  }

let new_sess tr id =
  let s = { id; s_count = Array.make n_layers 0; s_sec = Array.make n_layers 0.0 } in
  if tr.n_sessions < keep then tr.kept <- s :: tr.kept;
  tr.n_sessions <- tr.n_sessions + 1;
  s

let add_span tr s l dt =
  s.s_count.(l) <- s.s_count.(l) + 1;
  s.s_sec.(l) <- s.s_sec.(l) +. dt;
  tr.count.(l) <- tr.count.(l) + 1;
  tr.sec.(l) <- tr.sec.(l) +. dt

let bump tr c = tr.ctr.(c) <- tr.ctr.(c) + 1

(* Classify a delivered compiled-session message by the public MPC
   constructors; returns the span layer and bumps the counters. *)
let note_mpc tr s (m : Mpc.Engine.msg) =
  match m with
  | Mpc.Engine.Share_msg (sid, a) ->
      bump tr
        (match sid with
        | Mpc.Engine.Input_share _ -> c_avss_input
        | Mpc.Engine.Rand_share _ -> c_avss_rand
        | Mpc.Engine.Mul_share _ -> c_avss_mul);
      bump tr
        (match a with
        | Mpc.Avss.Row _ -> c_row
        | Mpc.Avss.Point _ -> c_point
        | Mpc.Avss.Ready -> c_ready);
      l_avss
  | Mpc.Engine.Vote_msg (vid, b) ->
      let inst =
        match vid with
        | Mpc.Engine.Input_vote d ->
            bump tr c_aba_input;
            d
        | Mpc.Engine.Mul_vote (g, d) ->
            bump tr c_aba_mul;
            ((g + 1) lsl 16) lor d
      in
      let round r =
        let key = (s.id, inst) in
        match Hashtbl.find_opt tr.rounds key with
        | Some r0 when r0 >= r -> ()
        | _ -> Hashtbl.replace tr.rounds key r
      in
      (match b with
      | Agreement.Aba.Bval { round = r; _ } ->
          bump tr c_bval;
          round r
      | Agreement.Aba.Aux { round = r; _ } ->
          bump tr c_aux;
          round r
      | Agreement.Aba.Decide _ -> bump tr c_decide);
      l_aba
  | Mpc.Engine.Output_msg _ -> l_output

let traced_config tr s ~note (cfg : ('m, int) Runner.config) =
  let wrap (p : ('m, int) Types.process) =
    {
      p with
      Types.start =
        (fun () ->
          let t0 = now () in
          let e = p.Types.start () in
          add_span tr s l_start (now () -. t0);
          e);
      receive =
        (fun ~src m ->
          let l = note tr s m in
          let t0 = now () in
          let e = p.Types.receive ~src m in
          add_span tr s l (now () -. t0);
          e);
    }
  in
  let sc = cfg.Runner.scheduler in
  let choose ~step ~history ~pending =
    let t0 = now () in
    let d = sc.Sim.Scheduler.choose ~step ~history ~pending in
    add_span tr s l_choose (now () -. t0);
    d
  in
  {
    cfg with
    Runner.processes = Array.map wrap cfg.Runner.processes;
    scheduler = { sc with Sim.Scheduler.choose };
  }

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* A session passes when it ends All_halted and every honest player
   played the same valid action. *)
let session_ok ~honest ~valid (o : int Types.outcome) =
  match o.Types.termination with
  | Types.All_halted ->
      let agreed = ref None in
      let ok = ref true in
      Array.iteri
        (fun pid m ->
          if honest pid then
            match (m, !agreed) with
            | Some a, None -> if valid a then agreed := Some a else ok := false
            | Some a, Some b -> if a <> b then ok := false
            | None, _ -> ok := false)
        o.Types.moves;
      !ok && Option.is_some !agreed
  | Types.Quiescent | Types.Deadlocked | Types.Cutoff | Types.Timed_out -> false

type 'm proto = {
  config : seed:int -> ('m, int) Runner.config;
  note : tracer -> sess -> 'm -> int;
  ok : int Types.outcome -> bool;
  bound : int;  (** Compile.message_bound; 0 without a plan *)
}

type packed = P : 'm proto -> packed

type kind =
  | Toy
  | Compiled of {
      spec : unit -> Mediator.Spec.t;
      k : int;
      t : int;
      attacker : int option;
    }

(* A run's session counts are [rate] x seconds: fixed in code, so the
   same seed and seconds always run the same sessions and every count
   repeats exactly. [rate] is what the reference box (2 vCPU, one
   domain) sustains, so a run measures for about the requested time. *)
type workload = {
  name : string;
  backend : Transport.Backend.t;
  kind : kind;
  rate : float;  (** nominal sessions per second *)
  warmup : int;  (** untimed warm-up sessions per set-up *)
}

let workloads =
  [
    { name = "toy"; backend = Transport.Backend.Sim; kind = Toy; rate = 135_000.0; warmup = 25_000 };
    {
      name = "coord5";
      backend = Transport.Backend.Sim;
      kind =
        Compiled
          { spec = (fun () -> Mediator.Spec.coordination ~n:5); k = 0; t = 1; attacker = None };
      rate = 175.0;
      warmup = 35;
    };
    {
      name = "coord5-live";
      backend = Transport.Backend.Live;
      kind =
        Compiled
          { spec = (fun () -> Mediator.Spec.coordination ~n:5); k = 0; t = 1; attacker = None };
      rate = 87.0;
      warmup = 16;
    };
    {
      name = "mm9-byz";
      backend = Transport.Backend.Sim;
      kind =
        Compiled
          { spec = (fun () -> Mediator.Spec.majority_match ~n:9); k = 1; t = 1; attacker = Some 8 };
      rate = 12.0;
      warmup = 3;
    };
  ]

let inflight = 16

(* E3's attack: corrupt every AVSS cross point (+5) and every output
   share (+1) the player sends. *)
let attack p =
  Adversary.Byzantine.corrupt_output_shares ~offset:Field.Gf.one
    (Adversary.Byzantine.corrupt_avss_points ~offset:(Field.Gf.of_int 5) p)

(* Compile the workload's plan (the set-up work) and return its session
   constructor. *)
let prepare w =
  match w.kind with
  | Toy ->
      P
        {
          config = (fun ~seed -> Engine.Toy.config ~seed ());
          note = (fun _ _ _ -> l_recv);
          ok = session_ok ~honest:(fun _ -> true) ~valid:(fun _ -> true);
          bound = 0;
        }
  | Compiled { spec; k; t; attacker } ->
      let plan = Compile.plan_memo_exn ~spec:(spec ()) ~theorem:Compile.T41 ~k ~t () in
      let game = plan.Compile.spec.Mediator.Spec.game in
      let n = game.Games.Game.n in
      let config ~seed =
        let procs =
          Compile.processes plan ~types:(Array.make n 0) ~coin_seed:(seed * 7919) ~seed
        in
        Option.iter (fun a -> procs.(a) <- attack procs.(a)) attacker;
        Runner.config ~scheduler:(Sim.Scheduler.random_seeded seed) procs
      in
      P
        {
          config;
          note = note_mpc;
          ok =
            session_ok
              ~honest:(fun pid -> attacker <> Some pid)
              ~valid:(fun a -> a >= 0 && a < game.Games.Game.action_counts.(0));
          bound = Compile.message_bound plan;
        }

(* ------------------------------------------------------------------ *)
(* Timing *)

let sink = ref 0

(* ns per call of [f], called in batches of [batch] for at least [secs] *)
let time_loop ?(batch = 1000) ~secs f =
  let iters = ref 0 in
  let t0 = now () in
  let elapsed = ref 0.0 in
  while !elapsed < secs do
    for _ = 1 to batch do
      sink := !sink lxor f ()
    done;
    iters := !iters + batch;
    elapsed := now () -. t0
  done;
  !elapsed *. 1e9 /. float_of_int !iters

(* Machine-speed reference. The reference box is a shared 2-vCPU VM:
   its speed drifts by up to 25% over minutes, alike on every workload,
   while user time keeps pace with wall time (no steal), so neither
   longer runs nor CPU time remove the drift. Every timed window is therefore followed by
   [ref_secs] of a loop that writes a 2 MB buffer sequentially: the
   minor heap's memory traffic without the collector. No code under
   test and not the workload's heap changes its speed, and it allocates
   nothing. A window's times are scaled by the loop's rate over
   [ref_nominal], the rate it sustains on the reference box. *)
let ref_nominal = 1700.0
let ref_secs = 0.04
(* off the OCaml heap, so it does not enlarge the GC's heap target *)
let ref_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18)

let reference () =
  let x = ref 7 in
  for _ = 1 to 2 do
    for i = 0 to Bigarray.Array1.dim ref_buf - 1 do
      ref_buf.{i} <- i lxor !x
    done;
    x := !x + ref_buf.{!x land 1023}
  done;
  !x

(* speed relative to the reference box *)
let machine_speed () = 1e9 /. time_loop ~batch:1 ~secs:ref_secs reference /. ref_nominal

(* The [k]-th smallest (0-based) of [a.(0..n-1)], by in-place
   quickselect: no allocation, so it cannot show in words_per_session. *)
let select (a : float array) n k =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j
    else if k >= !i then lo := !i
    else begin
      lo := k;
      hi := k
    end
  done;
  a.(k)

(* ------------------------------------------------------------------ *)
(* One segment: [sessions] sessions with seeds base+0 .. base+sessions-1
   through a single Engine.run.

   A timed segment is cut into windows of [window] consecutive session
   completions, about half a second each, and every window is followed
   by a machine-speed sample. A window's rate is scaled by the mean of
   the samples on either side of it; its latencies, scaled the same way,
   are pooled into blocks of at least [lat_min] sessions for exact
   percentiles. The run reports the median window rate and the median
   block percentiles, so slow spells shorter than half the run do not
   move them. Selecting percentiles and the samples fall between
   windows. *)
type seg = {
  sessions : int;
  wall : float;  (** bench-timed wall around Engine.run *)
  stats : Engine.stats;
  rates : (float * float) list;  (** per window: (measured rate, speed) *)
  pcts : (float * float) list;  (** per block: scaled (p50, p90) *)
  failed : int;
}

let run_segment (P proto) ~backend ?tracer ?(window = 0) ?(lat_min = 1) ~base ~sessions () =
  let failed = ref 0 in
  let make_exit = ref 0.0 in
  let lat = Array.make window 0.0 in
  let filled = ref 0 in
  let block = if window = 0 then 0 else window * ((lat_min + window - 1) / window) in
  let blk = Array.make block 0.0 in
  let blk_n = ref 0 in
  let w_start = ref 0.0 in
  let last_sample = ref nan in
  let rates = ref [] and pcts = ref [] in
  (* speed samples pause every in-flight Live session *)
  let pauses = ref [] in
  let paused_within a b =
    List.fold_left (fun acc (p, q) -> acc +. Float.max 0.0 (Float.min q b -. Float.max p a)) 0.0 !pauses
  in
  let close_window t_end =
    let rate = float_of_int window /. (t_end -. !w_start) in
    let p0 = now () in
    let sample = machine_speed () in
    let speed = if Float.is_nan !last_sample then sample else (!last_sample +. sample) /. 2.0 in
    last_sample := sample;
    rates := (rate, speed) :: !rates;
    Array.iteri (fun i l -> blk.(!blk_n + i) <- l *. speed) lat;
    blk_n := !blk_n + window;
    if !blk_n = block then begin
      (* nearest rank *)
      let pct q = select blk block (max 0 (int_of_float (ceil (float_of_int block *. q)) - 1)) in
      let p50 = pct 0.5 in
      pcts := (p50, pct 0.9) :: !pcts;
      blk_n := 0
    end;
    filled := 0;
    w_start := now ();
    pauses := (p0, !w_start) :: !pauses
  in
  let make ~seed =
    let seed = base + seed in
    match tracer with
    | None ->
        let c = proto.config ~seed in
        make_exit := now ();
        c
    | Some tr ->
        let t0 = now () in
        if tr.last_profile_end > 0.0 then tr.gap <- tr.gap +. (t0 -. tr.last_profile_end)
        else if tr.first_make = 0.0 then tr.first_make <- t0;
        let s = new_sess tr seed in
        let c = traced_config tr s ~note:proto.note (proto.config ~seed) in
        let t1 = now () in
        add_span tr s l_make (t1 -. t0);
        make_exit := t1;
        c
  in
  (* Latency: on Sim a session runs from make's return to its profile
     call; on Live sessions interleave in the in-flight window, so the
     runner's own per-session clock (Runner.Driver creation to outcome) is
     used, less the speed samples taken meanwhile. Neither includes
     building the session. *)
  let profile (o : int Types.outcome) =
    let t0 = now () in
    if window > 0 then begin
      lat.(!filled) <-
        (match backend with
        | Transport.Backend.Sim -> t0 -. !make_exit
        | Transport.Backend.Live ->
            let d = o.Types.metrics.Obs.Metrics.wall_clock in
            d -. paused_within (t0 -. d) t0);
      incr filled;
      if !filled = window then close_window t0
    end;
    if not (proto.ok o) then incr failed;
    let p = Transport.Differential.profile ~show:string_of_int o in
    (match tracer with
    | None -> ()
    | Some tr ->
        let t1 = now () in
        tr.count.(l_profile) <- tr.count.(l_profile) + 1;
        tr.sec.(l_profile) <- tr.sec.(l_profile) +. (t1 -. t0);
        tr.last_profile_end <- t1);
    p
  in
  let t0 = now () in
  w_start := t0;
  let stats =
    Engine.run ~backend ~shards:1 ~inflight ~pool:Parallel.Pool.sequential ~sessions ~make
      ~profile ()
  in
  let wall = now () -. t0 in
  { sessions; wall; stats; rates = !rates; pcts = !pcts; failed = !failed }

(* ------------------------------------------------------------------ *)
(* Metric tables. Names and units must match BENCHMARK.json (the smoke
   check holds this). *)

let end_to_end =
  [
    ("sessions_per_s", "1/s");
    ("session_p50_us", "us");
    ("session_p90_us", "us");
    ("msgs_per_session", "msgs");
    ("words_per_session", "words");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("sim.override_frac", "ratio");
    ("sim.choose_calls_per_session", "calls");
    ("sim.choose_ns_per_call", "ns");
    ("sim.driver_self_us_per_session", "us");
    ("engine.gap_us_per_session", "us");
    ("transport.live_over_sim", "ratio");
    ("core.plan_ms", "ms");
    ("core.make_us_per_session", "us");
    ("mpc.start_us_per_session", "us");
    ("mpc.avss.msgs_per_session", "msgs");
    ("mpc.aba.msgs_per_session", "msgs");
    ("mpc.output.msgs_per_session", "msgs");
    ("mpc.avss.us_per_session", "us");
    ("mpc.aba.us_per_session", "us");
    ("mpc.output.us_per_session", "us");
    ("mpc.avss.ns_per_msg", "ns");
    ("mpc.aba.ns_per_msg", "ns");
    ("mpc.avss.row_per_session", "msgs");
    ("mpc.avss.point_per_session", "msgs");
    ("mpc.avss.ready_per_session", "msgs");
    ("mpc.aba.bval_per_session", "msgs");
    ("mpc.aba.aux_per_session", "msgs");
    ("mpc.aba.decide_per_session", "msgs");
    ("mpc.avss.input_per_session", "msgs");
    ("mpc.avss.rand_per_session", "msgs");
    ("mpc.avss.mul_per_session", "msgs");
    ("mpc.aba.input_per_session", "msgs");
    ("mpc.aba.mul_per_session", "msgs");
    ("mpc.aba.rounds_per_instance", "rounds");
    ("mpc.bound_ratio", "ratio");
    ("shamir.share_n5_d1_ns", "ns");
    ("shamir.reconstruct_n5_d1_ns", "ns");
    ("shamir.robust_n9_d2_e1_ns", "ns");
    ("field.gf_mul_ns", "ns");
    ("field.gf_inv_ns", "ns");
    ("gc.minor_words_per_session", "words");
    ("gc.promoted_words_per_session", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
  ]

let metrics_json table values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = match List.assoc_opt name values with Some v -> v | None -> nan in
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       table)

(* ------------------------------------------------------------------ *)
(* Standalone kernel loops at the workloads' shapes, [secs] each. *)

let kernels ~secs =
  let rng = Random.State.make [| 7919 |] in
  let gf () = Field.Gf.random_nonzero rng in
  let secret = gf () in
  let shares5 = Array.to_list (Shamir.share rng ~n:5 ~t:1 ~secret) in
  let shares9 =
    List.mapi
      (fun i (s : Shamir.share) ->
        if i = 4 then { s with Shamir.value = Field.Gf.add s.Shamir.value Field.Gf.one } else s)
      (Array.to_list (Shamir.share rng ~n:9 ~t:2 ~secret))
  in
  let elems = Array.init 1024 (fun _ -> gf ()) in
  let i = ref 0 in
  let next () =
    i := (!i + 1) land 1023;
    elems.(!i)
  in
  let acc = ref Field.Gf.one in
  let value = function Some v -> Field.Gf.to_int v | None -> -1 in
  [
    ( "shamir.share_n5_d1_ns",
      time_loop ~secs (fun () ->
          Field.Gf.to_int (Shamir.share rng ~n:5 ~t:1 ~secret).(0).Shamir.value) );
    ("shamir.reconstruct_n5_d1_ns", time_loop ~secs (fun () -> value (Shamir.reconstruct ~t:1 shares5)));
    ( "shamir.robust_n9_d2_e1_ns",
      time_loop ~secs (fun () -> value (Shamir.reconstruct_robust ~t:2 ~max_errors:2 shares9)) );
    ( "field.gf_mul_ns",
      time_loop ~secs (fun () ->
          acc := Field.Gf.mul !acc (next ());
          Field.Gf.to_int !acc) );
    ("field.gf_inv_ns", time_loop ~secs (fun () -> Field.Gf.to_int (Field.Gf.inv (next ()))));
  ]

(* ------------------------------------------------------------------ *)
(* Measurement *)

type budget = Seconds of float | Smoke

type result = {
  record : Json.t;  (** the full run record *)
  metrics : Json.t;  (** what the result line reports *)
  attempted : int;
  failed : int;
  checks_ok : bool;
  trace_lines : string list;
}

let median l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let per_session total n = if n > 0 then total /. float_of_int n else 0.0
let delivered (s : seg) = Obs.Metrics.delivered_total (Obs.Agg.total s.stats.Engine.agg)

(* Set-up: cold plan compile (memo and Shamir caches cleared) plus the
   untimed warm-up sessions, followed by a machine-speed sample.
   Returns (seconds, speed, proto, warm-up segment). *)
let setup w ~base ~warmup =
  let t0 = now () in
  Compile.clear_caches ();
  Shamir.clear_caches ();
  let proto = prepare w in
  let s = run_segment proto ~backend:w.backend ~base ~sessions:warmup () in
  let secs = now () -. t0 in
  (secs, machine_speed (), proto, s)

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g0, g1)

let span_json count sec =
  Json.Obj
    (List.filter_map
       (fun l ->
         if count.(l) = 0 then None
         else Some (layer_names.(l), Json.List [ Json.Int count.(l); Json.Float (sec.(l) *. 1e9) ]))
       (List.init n_layers Fun.id))

let trace_lines w ~seed (tr : tracer) (seg : seg) ~self =
  let header =
    Json.Obj
      [
        ("trace", Json.String "ctbench");
        ("workload", Json.String w.name);
        ("seed", Json.Int seed);
        ("backend", Json.String (Transport.Backend.to_string w.backend));
        ( "layers",
          Json.List
            (Array.to_list
               (Array.map
                  (fun n -> Json.Obj [ ("name", Json.String n); ("parent", Json.String "session") ])
                  layer_names)) );
        ("spans", Json.String "[count, total_ns]");
      ]
  in
  let sessions =
    List.rev_map
      (fun s -> Json.Obj [ ("session", Json.Int s.id); ("spans", span_json s.s_count s.s_sec) ])
      tr.kept
  in
  let run =
    Json.Obj
      [
        ( "run",
          Json.Obj
            [
              ("sessions", Json.Int seg.sessions);
              ("wall_ns", Json.Float (seg.wall *. 1e9));
              ("active_ns", Json.Float ((tr.last_profile_end -. tr.first_make) *. 1e9));
              ("gap_ns", Json.Float (tr.gap *. 1e9));
              ("self_ns", Json.Float (self *. 1e9));
              ("spans", span_json tr.count tr.sec);
            ] );
      ]
  in
  List.map json_line ((header :: sessions) @ [ run ])

let env_json () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("domains", Json.Int 1);
    ]

(* --smoke runs every segment at about 1% of a full run *)
let smoke_size w = max 1 (w.warmup / 2)

let measure w ~seed ~budget ~trace =
  let base = seed lsl 32 in
  let warm_base = base + (1 lsl 31) in
  let seconds = match budget with Smoke -> 0.0 | Seconds s -> s in
  (* sessions for [secs] seconds of untraced work at the nominal rate *)
  let size secs =
    match budget with
    | Smoke -> smoke_size w
    | Seconds _ -> max 1 (int_of_float (w.rate *. secs))
  in
  let warmup = match budget with Smoke -> 1 | Seconds _ -> w.warmup in
  let reps = match (budget, trace) with Smoke, _ | _, true -> 1 | Seconds _, false -> 5 in
  let setups = List.init reps (fun _ -> setup w ~base:warm_base ~warmup) in
  let _, _, proto, _ = List.hd setups in
  let attempted = ref (List.fold_left (fun a (_, _, _, (s : seg)) -> a + s.sessions) 0 setups) in
  let failed = ref (List.fold_left (fun a (_, _, _, (s : seg)) -> a + s.failed) 0 setups) in
  let account (s : seg) =
    attempted := !attempted + s.sessions;
    failed := !failed + s.failed
  in
  let common =
    [
      ("workload", Json.String w.name);
      ("seed", Json.Int seed);
      ("backend", Json.String (Transport.Backend.to_string w.backend));
      ("warmup", Json.Int warmup);
      ("setup_reps", Json.Int reps);
    ]
  in
  if not trace then begin
    let window = match budget with Smoke -> smoke_size w | Seconds _ -> size 0.5 in
    let lat_min = match budget with Smoke -> 1 | Seconds _ -> 20 in
    let s =
      run_segment proto ~backend:w.backend ~window ~lat_min ~base ~sessions:(size seconds) ()
    in
    account s;
    let setup_secs = List.map (fun (secs, speed, _, _) -> (secs, speed)) setups in
    let values =
      [
        ("sessions_per_s", median (List.map (fun (r, speed) -> r /. speed) s.rates));
        ("session_p50_us", median (List.map fst s.pcts) *. 1e6);
        ("session_p90_us", median (List.map snd s.pcts) *. 1e6);
        ("msgs_per_session", per_session (float_of_int (delivered s)) s.sessions);
        ("words_per_session", Engine.words_per_session s.stats);
        ("peak_rss_mb", peak_rss_mb ());
        ("setup_s", median (List.map (fun (secs, speed) -> secs *. speed) setup_secs));
      ]
    in
    let metrics = metrics_json end_to_end values in
    let record =
      Json.Obj
        (common
        @ [
            ("sessions", Json.Int s.sessions);
            ("windows", Json.Int (List.length s.rates));
            ("digest", Json.String (Digest.to_hex (Digest.string (Engine.det_repr s.stats))));
            ("metrics", metrics);
            ("machine_speed", Json.Float (median (List.map snd s.rates)));
            ( "unscaled",
              Json.Obj
                [
                  ("sessions_per_s", Json.Float (median (List.map fst s.rates)));
                  ("setup_s", Json.Float (median (List.map fst setup_secs)));
                ] );
            ("failed_frac", Json.Float (float_of_int !failed /. float_of_int (max 1 !attempted)));
            ("layers", Json.Obj []);
            ("env", env_json ());
          ])
    in
    { record; metrics; attempted = !attempted; failed = !failed; checks_ok = true; trace_lines = [] }
  end
  else begin
    (* The kernels' 5 x kernel_secs come out of the budget first; the
       rest is 30% untraced (the overhead baseline, GC and override
       counts) and 70% traced, sized for a 25% tracing cost (5-31% as
       measured). On Live the traced seeds are re-run on Sim, so Live
       gets less. *)
    let kernel_secs = match budget with Smoke -> 0.01 | Seconds _ -> 0.5 in
    let avail = Float.max 1.0 (seconds -. (5.0 *. kernel_secs)) in
    let u, g0, g1 =
      gc_delta (fun () ->
          run_segment proto ~backend:w.backend ~base ~sessions:(size (0.3 *. avail)) ())
    in
    account u;
    (* the untraced share is scaled by the speed sample after it, the
       traced ones by the samples on either side *)
    let speed_u = machine_speed () in
    let u_rate = float_of_int u.sessions /. u.wall /. speed_u in
    let u_total = Obs.Agg.total u.stats.Engine.agg in
    let traced_share =
      match w.backend with Transport.Backend.Live -> 0.45 | Transport.Backend.Sim -> 0.7
    in
    let n_traced = size (0.75 *. traced_share *. avail) in
    let traced_base = base + u.sessions in
    let tr = tracer_create () in
    let t = run_segment proto ~backend:w.backend ~tracer:tr ~base:traced_base ~sessions:n_traced () in
    account t;
    let speed_after_t = machine_speed () in
    let speed_t = (speed_u +. speed_after_t) /. 2.0 in
    let live_check =
      match w.backend with
      | Transport.Backend.Sim -> None
      | Transport.Backend.Live ->
          let tr_sim = tracer_create () in
          let s =
            run_segment proto ~backend:Transport.Backend.Sim ~tracer:tr_sim ~base:traced_base
              ~sessions:n_traced ()
          in
          account s;
          let speed_s = (speed_after_t +. machine_speed ()) /. 2.0 in
          Some
            ( String.equal (Engine.det_repr t.stats) (Engine.det_repr s.stats),
              t.wall *. speed_t /. (s.wall *. speed_s) )
    in
    (* a cold plan costs well under a microsecond: time a loop of them *)
    let plan_ns =
      match w.kind with
      | Toy -> 0.0
      | Compiled { spec; k; t; _ } ->
          let spec = spec () in
          time_loop ~secs:(kernel_secs /. 5.0) (fun () ->
              (Compile.plan_exn ~spec ~theorem:Compile.T41 ~k ~t ()).Compile.degree)
    in
    let k = kernels ~secs:kernel_secs in
    (* one speed sample scales the standalone loops *)
    let speed_k = machine_speed () in
    let k = List.map (fun (name, ns) -> (name, ns *. speed_k)) k in
    let n = t.sessions in
    let us x = per_session (x *. 1e6 *. speed_t) n in
    let children = Array.fold_left ( +. ) 0.0 tr.sec in
    let self = t.wall -. children -. tr.gap in
    let active = tr.last_profile_end -. tr.first_make in
    let coverage = active /. t.wall in
    let cnt c = per_session (float_of_int tr.ctr.(c)) n in
    let msgs l = per_session (float_of_int tr.count.(l)) n in
    let ns_per l =
      if tr.count.(l) > 0 then tr.sec.(l) *. 1e9 *. speed_t /. float_of_int tr.count.(l) else 0.0
    in
    let instances = Hashtbl.length tr.rounds in
    let round_sum = Hashtbl.fold (fun _ r a -> a + r) tr.rounds 0 in
    let u_msgs = per_session (float_of_int (delivered u)) u.sessions in
    let bound = match proto with P p -> p.bound in
    let values =
      [
        ( "sim.override_frac",
          per_session (float_of_int u_total.Obs.Metrics.starved) u_total.Obs.Metrics.steps );
        ("sim.choose_calls_per_session", msgs l_choose);
        ("sim.choose_ns_per_call", ns_per l_choose);
        ("sim.driver_self_us_per_session", us self);
        ("engine.gap_us_per_session", us tr.gap);
        ( "transport.live_over_sim",
          match live_check with Some (_, r) -> r | None -> 0.0 );
        ("core.plan_ms", plan_ns *. 1e-6 *. speed_k);
        ("core.make_us_per_session", us tr.sec.(l_make));
        ("mpc.start_us_per_session", (match w.kind with Toy -> 0.0 | Compiled _ -> us tr.sec.(l_start)));
        ("mpc.avss.msgs_per_session", msgs l_avss);
        ("mpc.aba.msgs_per_session", msgs l_aba);
        ("mpc.output.msgs_per_session", msgs l_output);
        ("mpc.avss.us_per_session", us tr.sec.(l_avss));
        ("mpc.aba.us_per_session", us tr.sec.(l_aba));
        ("mpc.output.us_per_session", us tr.sec.(l_output));
        ("mpc.avss.ns_per_msg", ns_per l_avss);
        ("mpc.aba.ns_per_msg", ns_per l_aba);
        ("mpc.avss.row_per_session", cnt c_row);
        ("mpc.avss.point_per_session", cnt c_point);
        ("mpc.avss.ready_per_session", cnt c_ready);
        ("mpc.aba.bval_per_session", cnt c_bval);
        ("mpc.aba.aux_per_session", cnt c_aux);
        ("mpc.aba.decide_per_session", cnt c_decide);
        ("mpc.avss.input_per_session", cnt c_avss_input);
        ("mpc.avss.rand_per_session", cnt c_avss_rand);
        ("mpc.avss.mul_per_session", cnt c_avss_mul);
        ("mpc.aba.input_per_session", cnt c_aba_input);
        ("mpc.aba.mul_per_session", cnt c_aba_mul);
        ("mpc.aba.rounds_per_instance", per_session (float_of_int round_sum) instances);
        ("mpc.bound_ratio", if bound > 0 then u_msgs /. float_of_int bound else 0.0);
      ]
      @ k
      @ [
          ( "gc.minor_words_per_session",
            per_session (g1.Gc.minor_words -. g0.Gc.minor_words) u.sessions );
          ( "gc.promoted_words_per_session",
            per_session (g1.Gc.promoted_words -. g0.Gc.promoted_words) u.sessions );
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
          ("trace.overhead_frac", 1.0 -. (float_of_int n /. t.wall /. speed_t /. u_rate));
        ]
    in
    let metrics = metrics_json per_layer values in
    let live_ok = match live_check with Some (ok, _) -> ok | None -> true in
    let coverage_ok = coverage >= 0.95 && coverage <= 1.0 in
    let lines = trace_lines w ~seed tr t ~self in
    let record =
      Json.Obj
        (common
        @ [
            ("sessions", Json.Int u.sessions);
            ("traced_sessions", Json.Int n);
            ("machine_speed", Json.Float speed_t);
            ("metrics", Json.Obj []);
            ("failed_frac", Json.Float (float_of_int !failed /. float_of_int (max 1 !attempted)));
            ("layers", metrics);
            ( "checks",
              Json.Obj
                [
                  ("trace_coverage", Json.Float coverage);
                  ( "live_digest_equals_sim",
                    match live_check with Some (ok, _) -> Json.Bool ok | None -> Json.Null );
                ] );
            ("env", env_json ());
          ])
    in
    {
      record;
      metrics;
      attempted = !attempted;
      failed = !failed;
      checks_ok = live_ok && coverage_ok;
      trace_lines = lines;
    }
  end

let result_line r =
  json_line
    (Json.Obj
       [
         ("correct", Json.Bool (r.failed = 0 && r.checks_ok));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", r.metrics);
       ])

(* ------------------------------------------------------------------ *)
(* --smoke: every workload at about 1% size, untraced and traced, its
   JSON parsed back, every BENCHMARK.json metric present, and the
   outcome predicate's rejections unit-checked. *)

let fail_smoke fmt = Printf.ksprintf (fun m -> prerr_endline ("ctbench --smoke: " ^ m); exit 1) fmt

let names_of j key =
  match Option.bind (Json.member key j) Json.to_list_opt with
  | None -> fail_smoke "BENCHMARK.json has no %s list" key
  | Some l ->
      List.map
        (fun e ->
          match Option.bind (Json.member "name" e) Json.to_string_opt with
          | Some n -> n
          | None -> fail_smoke "BENCHMARK.json %s entry without a name" key)
        l

let smoke bench_file =
  let t0 = now () in
  let bench = Json.of_file bench_file in
  let same what a b =
    if List.sort String.compare a <> List.sort String.compare b then
      fail_smoke "%s differ: BENCHMARK.json [%s] vs ctbench [%s]" what (String.concat " " a)
        (String.concat " " b)
  in
  same "workloads" (names_of bench "workloads") (List.map (fun w -> w.name) workloads);
  same "end_to_end metrics" (names_of bench "end_to_end") (List.map fst end_to_end);
  same "per_layer metrics" (names_of bench "per_layer") (List.map fst per_layer);
  (* the predicate must reject a split move and a non-All_halted end *)
  let outcome moves termination =
    {
      Types.moves;
      termination;
      messages_sent = 0;
      messages_delivered = 0;
      steps = 0;
      trace = [];
      halted = Array.map (fun _ -> true) moves;
      metrics = Obs.Metrics.zero;
    }
  in
  let ok = session_ok ~honest:(fun _ -> true) ~valid:(fun a -> a = 0 || a = 1) in
  if not (ok (outcome [| Some 1; Some 1; Some 1 |] Types.All_halted)) then
    fail_smoke "predicate rejects an agreed outcome";
  if ok (outcome [| Some 1; Some 0; Some 1 |] Types.All_halted) then
    fail_smoke "predicate accepts a split move";
  if ok (outcome [| Some 1; Some 1; Some 1 |] Types.Deadlocked) then
    fail_smoke "predicate accepts a Deadlocked outcome";
  if ok (outcome [| Some 1; None; Some 1 |] Types.All_halted) then
    fail_smoke "predicate accepts a missing move";
  let rng = Random.State.make [| 3 |] in
  for n = 1 to 40 do
    let a = Array.init n (fun _ -> float_of_int (Random.State.int rng 8)) in
    let sorted = Array.copy a in
    Array.sort Float.compare sorted;
    for k = 0 to n - 1 do
      if select (Array.copy a) n k <> sorted.(k) then fail_smoke "select is not the k-th smallest"
    done
  done;
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = measure w ~seed:1 ~budget:Smoke ~trace in
          let parsed = Json.of_string (json_line r.record) in
          let key, table = if trace then ("layers", per_layer) else ("metrics", end_to_end) in
          let got = match Json.member key parsed with Some j -> j | None -> Json.Null in
          List.iter
            (fun (name, unit) ->
              match Option.bind (Json.member name got) (Json.member "value") with
              | Some v when Option.is_some (Json.to_float_opt v) -> (
                  match Option.bind (Json.member name got) (Json.member "unit") with
                  | Some (Json.String u) when String.equal u unit -> ()
                  | _ -> fail_smoke "%s: %s has no unit %s" w.name name unit)
              | _ -> fail_smoke "%s: metric %s missing or not a number" w.name name)
            table;
          let result = Json.of_string (result_line r) in
          if Json.member "correct" result <> Some (Json.Bool true) then
            fail_smoke "%s (trace %b): %d of %d sessions failed or a check failed: %s" w.name
              trace r.failed r.attempted (json_line r.record);
          List.iter (fun l -> ignore (Json.of_string l)) r.trace_lines)
        [ false; true ])
    workloads;
  Printf.printf "ctbench --smoke: %d workloads ok, traced and untraced, in %.2f s\n"
    (List.length workloads) (now () -. t0)

(* ------------------------------------------------------------------ *)

let write_lines path lines =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 15 in
  let trace = ref 0 in
  let smoke_file = ref None in
  let usage =
    "ctbench --workload W [--seed S] [--seconds T] [--trace 0|1]\n\
     ctbench --smoke BENCHMARK.json\n\
     workloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "S input seed (default 1); session i runs seed S*2^32+i");
      ("--seconds", Arg.Set_int seconds, "T seconds to measure (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--smoke", Arg.String (fun f -> smoke_file := Some f), "FILE smoke check against FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match !smoke_file with
  | Some f -> smoke f
  | None ->
      let bad m =
        prerr_endline ("ctbench: " ^ m);
        prerr_endline usage;
        exit 2
      in
      let w =
        match List.find_opt (fun w -> String.equal w.name !workload) workloads with
        | Some w -> w
        | None -> bad (Printf.sprintf "unknown workload %S" !workload)
      in
      if !seed < 0 || !seed >= 1 lsl 30 then bad "--seed must be in [0, 2^30)";
      if !seconds < 1 then bad "--seconds must be >= 1";
      if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
      let r =
        measure w ~seed:!seed ~budget:(Seconds (float_of_int !seconds)) ~trace:(!trace = 1)
      in
      let trace_path =
        if !trace = 1 then begin
          let path = Printf.sprintf "results/trace-%s-%d.jsonl" w.name !seed in
          write_lines path r.trace_lines;
          Json.String path
        end
        else Json.Null
      in
      let record =
        match r.record with Json.Obj l -> Json.Obj (l @ [ ("trace", trace_path) ]) | j -> j
      in
      print_endline (json_line record);
      print_endline (result_line r);
      if r.failed > 0 || not r.checks_ok then exit 1
