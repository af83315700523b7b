(* OCaml's Unix library has no clock_gettime binding and gettimeofday
   steps with the system clock; monotonic_stubs.c reads CLOCK_MONOTONIC
   directly. Unboxed and noalloc, like the Unix library's gettimeofday,
   so stamping a run allocates nothing. *)
external now : unit -> (float[@unboxed])
  = "ctmed_monotonic_now_byte" "ctmed_monotonic_now"
[@@noalloc]

type counts = { p2p : int; p2m : int; m2p : int; self : int }

let counts_zero = { p2p = 0; p2m = 0; m2p = 0; self = 0 }
let counts_total c = c.p2p + c.p2m + c.m2p + c.self

let counts_add a b =
  { p2p = a.p2p + b.p2p; p2m = a.p2m + b.p2m; m2p = a.m2p + b.m2p; self = a.self + b.self }

type t = {
  runs : int;
  sent : counts;
  delivered : counts;
  dropped : counts;
  batches : int;
  steps : int;
  starved : int;
  invalid_decisions : int;
  scheduler_exns : int;
  injected_dup : int;
  injected_corrupt : int;
  injected_delay : int;
  injected_crash : int;
  timed_out : int;
  trial_retries : int;
  wall_clock : float;
  gc_minor_words : float;
  gc_major_words : float;
}

let zero =
  {
    runs = 0;
    sent = counts_zero;
    delivered = counts_zero;
    dropped = counts_zero;
    batches = 0;
    steps = 0;
    starved = 0;
    invalid_decisions = 0;
    scheduler_exns = 0;
    injected_dup = 0;
    injected_corrupt = 0;
    injected_delay = 0;
    injected_crash = 0;
    timed_out = 0;
    trial_retries = 0;
    wall_clock = 0.0;
    gc_minor_words = 0.0;
    gc_major_words = 0.0;
  }

let merge a b =
  {
    runs = a.runs + b.runs;
    sent = counts_add a.sent b.sent;
    delivered = counts_add a.delivered b.delivered;
    dropped = counts_add a.dropped b.dropped;
    batches = a.batches + b.batches;
    steps = a.steps + b.steps;
    starved = a.starved + b.starved;
    invalid_decisions = a.invalid_decisions + b.invalid_decisions;
    scheduler_exns = a.scheduler_exns + b.scheduler_exns;
    injected_dup = a.injected_dup + b.injected_dup;
    injected_corrupt = a.injected_corrupt + b.injected_corrupt;
    injected_delay = a.injected_delay + b.injected_delay;
    injected_crash = a.injected_crash + b.injected_crash;
    timed_out = a.timed_out + b.timed_out;
    trial_retries = a.trial_retries + b.trial_retries;
    wall_clock = a.wall_clock +. b.wall_clock;
    gc_minor_words = a.gc_minor_words +. b.gc_minor_words;
    gc_major_words = a.gc_major_words +. b.gc_major_words;
  }

let sent_total m = counts_total m.sent
let delivered_total m = counts_total m.delivered
let dropped_total m = counts_total m.dropped

let det_fields m =
  [
    ("runs", m.runs);
    ("sent", counts_total m.sent);
    ("sent_p2p", m.sent.p2p);
    ("sent_p2m", m.sent.p2m);
    ("sent_m2p", m.sent.m2p);
    ("sent_self", m.sent.self);
    ("delivered", counts_total m.delivered);
    ("delivered_p2p", m.delivered.p2p);
    ("delivered_p2m", m.delivered.p2m);
    ("delivered_m2p", m.delivered.m2p);
    ("delivered_self", m.delivered.self);
    ("dropped", counts_total m.dropped);
    ("dropped_p2p", m.dropped.p2p);
    ("dropped_p2m", m.dropped.p2m);
    ("dropped_m2p", m.dropped.m2p);
    ("dropped_self", m.dropped.self);
    ("batches", m.batches);
    ("steps", m.steps);
    ("starved", m.starved);
    ("invalid_decisions", m.invalid_decisions);
    ("scheduler_exns", m.scheduler_exns);
    ("injected_dup", m.injected_dup);
    ("injected_corrupt", m.injected_corrupt);
    ("injected_delay", m.injected_delay);
    ("injected_crash", m.injected_crash);
    ("timed_out", m.timed_out);
    ("trial_retries", m.trial_retries);
  ]

let injected_total m =
  m.injected_dup + m.injected_corrupt + m.injected_delay + m.injected_crash

(* A runless record carrying only retry counts ([runs = 0] keeps it out
   of the per-run percentile distributions when folded into an Agg). *)
let retries n = { zero with trial_retries = n }

let det_repr m =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) (det_fields m))

let pp fmt m =
  Format.fprintf fmt
    "@[<v>runs %d, steps %d, batches %d@,\
     sent %d (p2p %d, p2m %d, m2p %d, self %d)@,\
     delivered %d, dropped %d@,\
     fallbacks: %d starvation, %d invalid-decision, %d scheduler-exn@,\
     injected faults: %d dup, %d corrupt, %d delay, %d crash; %d timed-out, %d retried@,\
     wall-clock %.3fs, gc %.0f minor / %.0f major words@]"
    m.runs m.steps m.batches (counts_total m.sent) m.sent.p2p m.sent.p2m m.sent.m2p
    m.sent.self (counts_total m.delivered) (counts_total m.dropped) m.starved
    m.invalid_decisions m.scheduler_exns m.injected_dup m.injected_corrupt m.injected_delay
    m.injected_crash m.timed_out m.trial_retries m.wall_clock m.gc_minor_words
    m.gc_major_words

let summary_line m =
  let base =
    Printf.sprintf
      "msgs: %d sent (p2p %d, p2m %d, m2p %d, self %d), %d delivered, %d dropped | runs %d, \
       steps %d, batches %d | fallbacks: %d starved, %d invalid, %d sched-exn"
      (counts_total m.sent) m.sent.p2p m.sent.p2m m.sent.m2p m.sent.self
      (counts_total m.delivered) (counts_total m.dropped) m.runs m.steps m.batches m.starved
      m.invalid_decisions m.scheduler_exns
  in
  if injected_total m = 0 && m.timed_out = 0 && m.trial_retries = 0 then base
  else
    base
    ^ Printf.sprintf " | faults: %d dup, %d corrupt, %d delay, %d crash; %d timed-out, %d retried"
        m.injected_dup m.injected_corrupt m.injected_delay m.injected_crash m.timed_out
        m.trial_retries

let counts_to_json c =
  Json.Obj
    [
      ("total", Json.Int (counts_total c));
      ("p2p", Json.Int c.p2p);
      ("p2m", Json.Int c.p2m);
      ("m2p", Json.Int c.m2p);
      ("self", Json.Int c.self);
    ]

let to_json m =
  Json.Obj
    [
      ( "deterministic",
        Json.Obj
          [
            ("runs", Json.Int m.runs);
            ("sent", counts_to_json m.sent);
            ("delivered", counts_to_json m.delivered);
            ("dropped", counts_to_json m.dropped);
            ("batches", Json.Int m.batches);
            ("steps", Json.Int m.steps);
            ("starved", Json.Int m.starved);
            ("invalid_decisions", Json.Int m.invalid_decisions);
            ("scheduler_exns", Json.Int m.scheduler_exns);
            ( "injected",
              Json.Obj
                [
                  ("dup", Json.Int m.injected_dup);
                  ("corrupt", Json.Int m.injected_corrupt);
                  ("delay", Json.Int m.injected_delay);
                  ("crash", Json.Int m.injected_crash);
                ] );
            ("timed_out", Json.Int m.timed_out);
            ("trial_retries", Json.Int m.trial_retries);
          ] );
      ( "environmental",
        Json.Obj
          [
            ("wall_clock_s", Json.Float m.wall_clock);
            ("gc_minor_words", Json.Float m.gc_minor_words);
            ("gc_major_words", Json.Float m.gc_major_words);
          ] );
    ]

(* Inverse of [to_json], for checkpoint restore. Total-returning [None]
   on any missing/mistyped field: a checkpoint that does not parse must
   make the caller recompute, never half-restore. *)
let of_json j =
  let ( let* ) = Option.bind in
  let int k o = Option.bind (Json.member k o) Json.to_int_opt in
  let flt k o = Option.bind (Json.member k o) Json.to_float_opt in
  let counts k o =
    let* c = Json.member k o in
    let* p2p = int "p2p" c in
    let* p2m = int "p2m" c in
    let* m2p = int "m2p" c in
    let* self = int "self" c in
    Some { p2p; p2m; m2p; self }
  in
  let* det = Json.member "deterministic" j in
  let* env = Json.member "environmental" j in
  let* runs = int "runs" det in
  let* sent = counts "sent" det in
  let* delivered = counts "delivered" det in
  let* dropped = counts "dropped" det in
  let* batches = int "batches" det in
  let* steps = int "steps" det in
  let* starved = int "starved" det in
  let* invalid_decisions = int "invalid_decisions" det in
  let* scheduler_exns = int "scheduler_exns" det in
  let* injected = Json.member "injected" det in
  let* injected_dup = int "dup" injected in
  let* injected_corrupt = int "corrupt" injected in
  let* injected_delay = int "delay" injected in
  let* injected_crash = int "crash" injected in
  let* timed_out = int "timed_out" det in
  let* trial_retries = int "trial_retries" det in
  let* wall_clock = flt "wall_clock_s" env in
  let* gc_minor_words = flt "gc_minor_words" env in
  let* gc_major_words = flt "gc_major_words" env in
  Some
    {
      runs;
      sent;
      delivered;
      dropped;
      batches;
      steps;
      starved;
      invalid_decisions;
      scheduler_exns;
      injected_dup;
      injected_corrupt;
      injected_delay;
      injected_crash;
      timed_out;
      trial_retries;
      wall_clock;
      gc_minor_words;
      gc_major_words;
    }

(* Message classes, from the (src, dst) pair and the mediator pid. *)
let class_index ~mediator ~src ~dst =
  if src = dst then 3
  else
    match mediator with
    | Some m when src = m -> 2
    | Some m when dst = m -> 1
    | _ -> 0

module Builder = struct
  type t = {
    mutable mediator : int option;
    sent : int array;
    delivered : int array;
    dropped : int array;
    mutable starved : int;
    mutable invalid_decisions : int;
    mutable scheduler_exns : int;
    mutable injected_dup : int;
    mutable injected_corrupt : int;
    mutable injected_delay : int;
    mutable injected_crash : int;
    mutable timed_out : bool;
    mutable t0 : float;
    mutable gc0_minor : float;
    mutable gc0_major : float;
  }

  let create ~mediator =
    let gc = Gc.quick_stat () in
    {
      mediator;
      sent = Array.make 4 0;
      delivered = Array.make 4 0;
      dropped = Array.make 4 0;
      starved = 0;
      invalid_decisions = 0;
      scheduler_exns = 0;
      injected_dup = 0;
      injected_corrupt = 0;
      injected_delay = 0;
      injected_crash = 0;
      timed_out = false;
      t0 = now ();
      gc0_minor = gc.Gc.minor_words;
      gc0_major = gc.Gc.major_words;
    }

  (* Scrub-and-reuse: re-zero the count arrays and flags and re-snapshot
     the clock/GC baselines, exactly as [create] would, but without
     allocating a fresh record. Recycled runs (Runner.Slot) lean on
     this so per-session setup stays off the allocator. *)
  let reset b ~mediator =
    let gc = Gc.quick_stat () in
    b.mediator <- mediator;
    Array.fill b.sent 0 4 0;
    Array.fill b.delivered 0 4 0;
    Array.fill b.dropped 0 4 0;
    b.starved <- 0;
    b.invalid_decisions <- 0;
    b.scheduler_exns <- 0;
    b.injected_dup <- 0;
    b.injected_corrupt <- 0;
    b.injected_delay <- 0;
    b.injected_crash <- 0;
    b.timed_out <- false;
    b.t0 <- now ();
    b.gc0_minor <- gc.Gc.minor_words;
    b.gc0_major <- gc.Gc.major_words

  let bump b arr ~src ~dst =
    let i = class_index ~mediator:b.mediator ~src ~dst in
    arr.(i) <- arr.(i) + 1

  let sent b ~src ~dst = bump b b.sent ~src ~dst
  let delivered b ~src ~dst = bump b b.delivered ~src ~dst
  let dropped b ~src ~dst = bump b b.dropped ~src ~dst
  let starved b = b.starved <- b.starved + 1
  let invalid_decision b = b.invalid_decisions <- b.invalid_decisions + 1
  let scheduler_exn b = b.scheduler_exns <- b.scheduler_exns + 1
  let injected_dup b = b.injected_dup <- b.injected_dup + 1
  let injected_corrupt b = b.injected_corrupt <- b.injected_corrupt + 1
  let injected_delay b = b.injected_delay <- b.injected_delay + 1
  let injected_crash b = b.injected_crash <- b.injected_crash + 1
  let timed_out b = b.timed_out <- true

  let counts_of arr = { p2p = arr.(0); p2m = arr.(1); m2p = arr.(2); self = arr.(3) }

  let finish b ~batches ~steps =
    let gc = Gc.quick_stat () in
    {
      runs = 1;
      sent = counts_of b.sent;
      delivered = counts_of b.delivered;
      dropped = counts_of b.dropped;
      batches;
      steps;
      starved = b.starved;
      invalid_decisions = b.invalid_decisions;
      scheduler_exns = b.scheduler_exns;
      injected_dup = b.injected_dup;
      injected_corrupt = b.injected_corrupt;
      injected_delay = b.injected_delay;
      injected_crash = b.injected_crash;
      timed_out = (if b.timed_out then 1 else 0);
      trial_retries = 0;
      wall_clock = now () -. b.t0;
      gc_minor_words = gc.Gc.minor_words -. b.gc0_minor;
      gc_major_words = gc.Gc.major_words -. b.gc0_major;
    }
end
