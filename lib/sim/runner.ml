open Types

type ('m, 'a) config = {
  processes : ('m, 'a) process array;
  scheduler : Scheduler.t;
  mediator : int option;
  max_steps : int;
  starvation_bound : int;
  faults : Faults.Plan.t option;
  fuzz : (src:pid -> dst:pid -> seq:int -> 'm -> 'm) option;
  fuel : int option;
  wall_limit : float option;
  record : bool;
}

(* Monotonic wall clock for watchdogs and throughput measurement: a
   system clock step (NTP slew, manual set) must never spuriously fire
   a wall_limit nor starve it forever. The same clock stamps each run's
   metrics wall_clock. *)
let now = Obs.Metrics.now

let config ?mediator ?max_steps ?starvation_bound ?faults ?fuzz ?fuel ?wall_limit
    ?(record = false) ~scheduler processes =
  let n = Array.length processes in
  let max_steps = match max_steps with Some m -> m | None -> 200_000 in
  let starvation_bound =
    match starvation_bound with Some b -> b | None -> 64 + (4 * n * n)
  in
  if max_steps < 1 then
    invalid_arg (Printf.sprintf "Runner.config: max_steps must be > 0 (got %d)" max_steps);
  if starvation_bound < 1 then
    invalid_arg
      (Printf.sprintf "Runner.config: starvation_bound must be > 0 (got %d)" starvation_bound);
  (match fuel with
  | Some f when f < 1 ->
      invalid_arg (Printf.sprintf "Runner.config: fuel must be > 0 (got %d)" f)
  | _ -> ());
  (match wall_limit with
  | Some w when not (w > 0.0) ->
      invalid_arg (Printf.sprintf "Runner.config: wall_limit must be > 0 (got %g)" w)
  | _ -> ());
  { processes; scheduler; mediator; max_steps; starvation_bound; faults; fuzz; fuel;
    wall_limit; record }

(* A pending item is either a start signal or a real message. [fault] is
   the plan's verdict for this message (computed once, at enqueue);
   [delay_until] is the absolute decision count a Delay fault pins it
   until (0 = not pinned). *)
type ('m, _) item = {
  node : Pending_set.node;
  payload : 'm option; (* None = start signal *)
  enqueued_at_decision : int;
  fault : fault_kind option;
  delay_until : int;
}

(* The mutable driver state, shared between [run] (the scheduler-driven
   loop) and [Step] (the model checker's step-at-a-time hook).
   Everything a history's evolution touches lives here; the scheduler,
   fault plan wiring and watchdogs stay in [run]. *)
type ('m, 'a) core = {
  procs : ('m, 'a) process array;
  n : int;
  mediator : int option;
  faults : Faults.Plan.t option;
  fuzz : (src:pid -> dst:pid -> seq:int -> 'm -> 'm) option;
  mb : Obs.Metrics.Builder.t;
  (* [record]: keep the trace (the outcome's [trace]); [history]: keep
     the pattern list, built only for a scheduler whose [choose] reads
     it. Each event is built under its switch, at the cons: with both
     off a run builds nothing per message. *)
  record : bool;
  history : bool;
  halted : bool array;
  started : bool array;
  moves : 'a option array;
  mutable trace : 'a trace_event list; (* newest first *)
  mutable pattern : Scheduler.pattern_event list; (* newest first *)
  pending : Pending_set.t;
  (* Item ids are dense (assigned 0, 1, 2, ...), so per-item state lives in
     a growable array indexed by id instead of an int-keyed Hashtbl — the
     per-delivery find/remove pair becomes two array accesses. Delivered
     slots are cleared to [None] so items die young. *)
  mutable items : ('m, 'a) item option array;
  mutable next_id : int;
  mutable next_batch : int;
  (* Channel sequence numbers, indexed (src+1)*n + dst: sources are
     [env_pid = -1] and 0..n-1, destinations 0..n-1. *)
  seq : int array;
  mutable messages_sent : int;
  mutable messages_delivered : int;
  mutable steps : int;
  mutable decisions : int;
  (* Batch ids are dense too: a growable bitset replaces the unit Hashtbl. *)
  mutable delivered_batches : Bytes.t;
  (* Crash-restart windows are fixed per process before the run starts:
     the plan's verdict depends on the pid alone, so they are identical
     at any -j. A window defers deliveries to the process (messages stay
     pending, nothing is lost) — the process resumes from its last state
     when the window closes, unlike the permanent-crash transformer. *)
  crash_specs : (int * int) option array;
  crash_announced : bool array;
}

let create_core ?faults ?fuzz ~record ~history ~mediator procs =
  let n = Array.length procs in
  let crash_specs =
    match faults with
    | None -> [||]
    | Some plan -> Array.init n (fun pid -> Faults.Plan.crash_window plan ~pid)
  in
  {
    procs;
    n;
    mediator;
    faults;
    fuzz;
    mb = Obs.Metrics.Builder.create ~mediator;
    record;
    history;
    halted = Array.make n false;
    started = Array.make n false;
    moves = Array.make n None;
    trace = [];
    pattern = [];
    pending = Pending_set.create ();
    items = Array.make 1024 None;
    next_id = 0;
    next_batch = 0;
    seq = Array.make ((n + 1) * n) 0;
    messages_sent = 0;
    messages_delivered = 0;
    steps = 0;
    decisions = 0;
    delivered_batches = Bytes.make 64 '\000';
    crash_specs;
    crash_announced = Array.make n false;
  }

(* Session recycling: scrub a finished core back to its post-create_core
   state and reuse its grown storage for the next run. Everything
   [create_core] allocates fresh is either cleared in place (the items
   prefix, flag arrays, seq counters, batch bitset, metrics builder —
   keeping whatever capacity earlier sessions grew) or rebuilt only when
   it must be (crash windows, which depend on the new fault plan). The
   small top-level record is re-allocated ([{ old with ... }]) so the
   immutable-field discipline of [core] is untouched; at ~25 words it is
   noise next to the ~1.1k words of arrays being reused. Only valid when
   the process count matches — [core_for] falls back to a fresh core
   otherwise. *)
let reset_core old ?faults ?fuzz ~record ~history ~mediator procs =
  let n = Array.length procs in
  assert (n = old.n);
  Array.fill old.halted 0 n false;
  Array.fill old.started 0 n false;
  Array.fill old.moves 0 n None;
  (* ids are dense, so every slot ever written lies below next_id (and
     item_set grew the array past it) — clearing the prefix suffices
     for all termination kinds, including Cutoff with items pending *)
  Array.fill old.items 0 old.next_id None;
  Pending_set.clear old.pending;
  Array.fill old.seq 0 ((n + 1) * n) 0;
  Bytes.fill old.delivered_batches 0
    (min (Bytes.length old.delivered_batches) ((old.next_batch + 7) lsr 3))
    '\000';
  Obs.Metrics.Builder.reset old.mb ~mediator;
  let crash_specs =
    match faults with
    | None -> [||]
    | Some plan ->
        if Array.length old.crash_specs = n then begin
          for pid = 0 to n - 1 do
            old.crash_specs.(pid) <- Faults.Plan.crash_window plan ~pid
          done;
          old.crash_specs
        end
        else Array.init n (fun pid -> Faults.Plan.crash_window plan ~pid)
  in
  Array.fill old.crash_announced 0 n false;
  {
    old with
    procs;
    mediator;
    faults;
    fuzz;
    record;
    history;
    trace = [];
    pattern = [];
    next_id = 0;
    next_batch = 0;
    messages_sent = 0;
    messages_delivered = 0;
    steps = 0;
    decisions = 0;
    crash_specs;
  }

(* A slot carries one recyclable core between runs. [core_for] hands out
   a scrubbed core when the slot holds a compatible one, else creates
   fresh; either way the slot retains the core for the next run. *)
module Slot = struct
  type ('m, 'a) t = ('m, 'a) core option ref

  let create () = ref None
  let clear s = s := None
  let is_warm s = Option.is_some !s
end

let core_for ?slot ?faults ?fuzz ~record ~history ~mediator procs =
  match slot with
  | None -> create_core ?faults ?fuzz ~record ~history ~mediator procs
  | Some slot ->
      let c =
        match !slot with
        | Some old when old.n = Array.length procs ->
            reset_core old ?faults ?fuzz ~record ~history ~mediator procs
        | _ -> create_core ?faults ?fuzz ~record ~history ~mediator procs
      in
      slot := Some c;
      c

let item_get c id = if id >= 0 && id < Array.length c.items then c.items.(id) else None
let item_mem c id = Option.is_some (item_get c id)
let item_clear c id = c.items.(id) <- None

let item_set c id it =
  let cap = Array.length c.items in
  if id >= cap then begin
    let bigger = Array.make (max (2 * cap) (id + 1)) None in
    Array.blit c.items 0 bigger 0 cap;
    c.items <- bigger
  end;
  c.items.(id) <- Some it

let batch_mark c b =
  let byte = b lsr 3 in
  let cap = Bytes.length c.delivered_batches in
  if byte >= cap then begin
    let bigger = Bytes.make (max (2 * cap) (byte + 1)) '\000' in
    Bytes.blit c.delivered_batches 0 bigger 0 cap;
    c.delivered_batches <- bigger
  end;
  Bytes.unsafe_set c.delivered_batches byte
    (Char.chr (Char.code (Bytes.unsafe_get c.delivered_batches byte) lor (1 lsl (b land 7))))

let batch_mem c b =
  let byte = b lsr 3 in
  byte < Bytes.length c.delivered_batches
  && Char.code (Bytes.unsafe_get c.delivered_batches byte) land (1 lsl (b land 7)) <> 0

let next_seq c src dst =
  let key = ((src + 1) * c.n) + dst in
  let k = c.seq.(key) + 1 in
  c.seq.(key) <- k;
  k

(* [dup]: this enqueue is the injected copy of an already-delivered
   message — it consumes the channel's next seq like a real send but
   is announced as a Fault event (the environment duplicated it; the
   sender did not send it), and is never faulted again. *)
let enqueue ?(dup = false) c ~src ~dst ~payload ~batch () =
  let id = c.next_id in
  c.next_id <- id + 1;
  let s = next_seq c src dst in
  let view = { id; src; dst; seq = s; sent_step = c.steps; batch } in
  let node = Pending_set.append c.pending view in
  let fault, delay_until =
    if dup then (None, 0)
    else
      match (payload, c.faults) with
      | Some _, Some plan -> (
          match Faults.Plan.message_fault plan ~src ~dst ~seq:s with
          | Some Delay as f ->
              (f, c.decisions + (Faults.Plan.config plan).Faults.delay_decisions)
          | f -> (f, 0))
      | _ -> (None, 0)
  in
  item_set c id { node; payload; enqueued_at_decision = c.decisions; fault; delay_until };
  match payload with
  | None -> ()
  | Some _ ->
      c.messages_sent <- c.messages_sent + 1;
      Obs.Metrics.Builder.sent c.mb ~src ~dst;
      if dup then begin
        Obs.Metrics.Builder.injected_dup c.mb;
        if c.record then c.trace <- Fault { kind = Duplicate; src; dst; seq = s } :: c.trace;
        if c.history then
          c.pattern <- Scheduler.P_fault { kind = Duplicate; src; dst; seq = s } :: c.pattern
      end
      else begin
        if c.record then c.trace <- Sent { src; dst; seq = s } :: c.trace;
        if c.history then c.pattern <- Scheduler.P_sent { src; dst; seq = s } :: c.pattern;
        match fault with
        | Some Delay ->
            Obs.Metrics.Builder.injected_delay c.mb;
            if c.record then c.trace <- Fault { kind = Delay; src; dst; seq = s } :: c.trace;
            if c.history then
              c.pattern <- Scheduler.P_fault { kind = Delay; src; dst; seq = s } :: c.pattern
        | _ -> ()
      end

let rec apply_effects c pid batch effects =
  match effects with
  | [] -> ()
  | Send (dst, m) :: rest ->
      if dst >= 0 && dst < c.n then enqueue c ~src:pid ~dst ~payload:(Some m) ~batch ();
      apply_effects c pid batch rest
  | Move a :: rest ->
      (match c.moves.(pid) with
      | Some _ -> () (* at most one action in the underlying game *)
      | None ->
          c.moves.(pid) <- Some a;
          if c.record then c.trace <- Moved { who = pid; action = a } :: c.trace;
          if c.history then c.pattern <- Scheduler.P_moved pid :: c.pattern);
      apply_effects c pid batch rest
  | Halt :: rest ->
      if not c.halted.(pid) then begin
        c.halted.(pid) <- true;
        if c.record then c.trace <- Halted pid :: c.trace;
        if c.history then c.pattern <- Scheduler.P_halted pid :: c.pattern
      end;
      apply_effects c pid batch rest

and activate_start c pid =
  if (not c.started.(pid)) && not c.halted.(pid) then begin
    c.started.(pid) <- true;
    if c.record then c.trace <- Started pid :: c.trace;
    if c.history then c.pattern <- Scheduler.P_started pid :: c.pattern;
    let batch = c.next_batch in
    c.next_batch <- batch + 1;
    apply_effects c pid batch (c.procs.(pid).start ())
  end

(* Start signals for every process, in pid order. *)
let enqueue_starts c =
  for pid = 0 to c.n - 1 do
    enqueue c ~src:env_pid ~dst:pid ~payload:None ~batch:(-1) ()
  done

let deliver c id =
  match item_get c id with
  | None -> ()
  | Some item ->
      item_clear c id;
      Pending_set.remove c.pending item.node;
      let { src; dst; seq = s; batch; _ } = Pending_set.view_of item.node in
      (match item.payload with
      | None -> activate_start c dst
      | Some m ->
          c.messages_delivered <- c.messages_delivered + 1;
          Obs.Metrics.Builder.delivered c.mb ~src ~dst;
          let m =
            match (item.fault, c.fuzz) with
            | Some Corrupt, Some fuzz ->
                (* the channel mangles the payload in transit; without a
                   fuzz hook for this message type the fault is inert
                   and deliberately not counted *)
                Obs.Metrics.Builder.injected_corrupt c.mb;
                if c.record then
                  c.trace <- Fault { kind = Corrupt; src; dst; seq = s } :: c.trace;
                if c.history then
                  c.pattern <- Scheduler.P_fault { kind = Corrupt; src; dst; seq = s } :: c.pattern;
                fuzz ~src ~dst ~seq:s m
            | _ -> m
          in
          if c.record then c.trace <- Delivered { src; dst; seq = s } :: c.trace;
          if c.history then
            c.pattern <- Scheduler.P_delivered { src; dst; seq = s } :: c.pattern;
          if batch >= 0 then batch_mark c batch;
          (match item.fault with
          | Some Duplicate -> enqueue ~dup:true c ~src ~dst ~payload:item.payload ~batch ()
          | _ -> ());
          if not c.halted.(dst) then begin
            activate_start c dst;
            if not c.halted.(dst) then begin
              let b = c.next_batch in
              c.next_batch <- b + 1;
              apply_effects c dst b (c.procs.(dst).receive ~src m)
            end
          end)

(* Deliver as one step of the history. *)
let deliver_step c id =
  deliver c id;
  c.steps <- c.steps + 1

let all_halted c = Array.for_all (fun h -> h) c.halted

let drop_all_remaining c =
  (* Mediator-batch atomicity: finish partially delivered mediator
     batches before dropping the rest. Atomicity overrides Delay pins
     and crash windows — a batch is delivered all-or-none. *)
  let is_mediator src = match c.mediator with Some m -> src = m | None -> false in
  let must_finish (v : pending_view) =
    is_mediator v.src && v.batch >= 0 && batch_mem c v.batch
  in
  let rec finish () =
    match Pending_set.find c.pending must_finish with
    | Some v ->
        deliver_step c v.id;
        finish ()
    | None -> ()
  in
  finish ();
  let rec drop () =
    if not (Pending_set.is_empty c.pending) then begin
      let v = Pending_set.oldest c.pending in
      (match item_get c v.id with
      | None -> ()
      | Some item ->
          item_clear c v.id;
          Pending_set.remove c.pending item.node;
          (match item.payload with
          | None -> ()
          | Some _ ->
              Obs.Metrics.Builder.dropped c.mb ~src:v.src ~dst:v.dst;
              let { src; dst; seq; _ } = v in
              if c.record then c.trace <- Dropped { src; dst; seq } :: c.trace;
              if c.history then c.pattern <- Scheduler.P_dropped { src; dst; seq } :: c.pattern));
      drop ()
    end
  in
  drop ()

(* The environment-side predicates of the decision loop: who is inside
   a crash window, which items the environment is withholding, and the
   fairness bound. *)

let crashed c pid =
  pid >= 0
  && pid < Array.length c.crash_specs
  &&
  match c.crash_specs.(pid) with
  | Some (start, len) -> c.decisions >= start && c.decisions < start + len
  | None -> false

let announce_crashes c =
  Array.iteri
    (fun pid spec ->
      match spec with
      | Some (start, len) when (not c.crash_announced.(pid)) && c.decisions >= start ->
          c.crash_announced.(pid) <- true;
          Obs.Metrics.Builder.injected_crash c.mb;
          if c.record then
            c.trace <-
              Fault { kind = Crash_restart; src = env_pid; dst = pid; seq = len } :: c.trace;
          if c.history then
            c.pattern <-
              Scheduler.P_fault { kind = Crash_restart; src = env_pid; dst = pid; seq = len }
              :: c.pattern
      | _ -> ())
    c.crash_specs

(* One scheduler decision: the counter ticks (also on burnt/vetoed
   choices — the watchdog fuel unit) and any crash window that covers
   the new count is announced. *)
let tick c =
  c.decisions <- c.decisions + 1;
  if Option.is_some c.faults then announce_crashes c

(* An item the environment is currently withholding: Delay-pinned, or
   addressed to a process inside its crash-restart window. *)
let blocked c id =
  match item_get c id with
  | None -> true
  | Some it -> it.delay_until > c.decisions || crashed c (Pending_set.view_of it.node).dst

let oldest_deliverable c =
  Pending_set.find c.pending (fun (v : pending_view) -> not (blocked c v.id))

(* Fairness: the oldest message once it is starved past the bound
   ([enqueued_at_decision] is monotone in send order, so the oldest
   pending message is always the most-starved one). The override beats a
   Delay pin — that is exactly the guarantee Delay faults stress — but
   not a crash window (the destination cannot receive while silent;
   windows are finite). Only meaningful for non-relaxed schedulers. *)
let starving c ~bound =
  if Pending_set.is_empty c.pending then None
  else
    let v = Pending_set.oldest c.pending in
    match item_get c v.id with
    | Some it when c.decisions - it.enqueued_at_decision > bound && not (crashed c v.dst) ->
        Some v
    | _ -> None

let outcome_of c termination =
  {
    (* copies: an outcome must stay immutable even when the driver that
       produced it keeps evolving (a Step cutoff taken mid-history) *)
    moves = Array.copy c.moves;
    termination;
    messages_sent = c.messages_sent;
    messages_delivered = c.messages_delivered;
    steps = c.steps;
    trace = List.rev c.trace;
    halted = Array.copy c.halted;
    metrics = Obs.Metrics.Builder.finish c.mb ~batches:c.next_batch ~steps:c.steps;
  }

(* ------------------------------------------------------------------ *)
(* Decision journal: one entry per decision — a witness of the run. A run
   is a pure function of its config (the scheduler is a seeded object in
   it), so replay (time travel) and resume (crash-restart) re-run the
   rebuilt config through [decide] and check every entry it makes against
   the stored one. Entries carry channel coordinates (src, dst, seq)
   instead of item ids: ids are an implementation detail of the pending
   set, while coordinates are stable across re-execution and meaningful
   inside a store file. Process closures cannot be serialized, so a
   checkpoint IS the journal prefix. *)

module Journal = struct
  type coords = { src : pid; dst : pid; seq : int }

  type reason = Blocked | Invalid | Sched_exn

  type entry =
    | Forced of coords
    | Chose of coords
    | Fallback of reason * coords option
    | Stopped
    | Watchdog

  let coords_equal a b = Int.equal a.src b.src && Int.equal a.dst b.dst && Int.equal a.seq b.seq

  let equal a b =
    match (a, b) with
    | Forced x, Forced y | Chose x, Chose y -> coords_equal x y
    | Fallback (r, x), Fallback (r', y) ->
        (match (r, r') with
        | Blocked, Blocked | Invalid, Invalid | Sched_exn, Sched_exn -> true
        | _ -> false)
        && Option.equal coords_equal x y
    | Stopped, Stopped | Watchdog, Watchdog -> true
    | _ -> false

  let coords_repr { src; dst; seq } = Printf.sprintf "%d->%d#%d" src dst seq

  let reason_repr = function
    | Blocked -> "blocked"
    | Invalid -> "invalid"
    | Sched_exn -> "exn"

  let entry_repr = function
    | Forced c -> "forced " ^ coords_repr c
    | Chose c -> "chose " ^ coords_repr c
    | Fallback (r, Some c) -> Printf.sprintf "fallback[%s] %s" (reason_repr r) (coords_repr c)
    | Fallback (r, None) -> Printf.sprintf "fallback[%s] burnt" (reason_repr r)
    | Stopped -> "stopped"
    | Watchdog -> "watchdog"
end

exception Replay_mismatch of string

let replay_fail fmt = Printf.ksprintf (fun s -> raise (Replay_mismatch s)) fmt

(* ------------------------------------------------------------------ *)
(* The decision loop. A driver is one run in flight: its config, its
   core, the wall-limit origin and the journal hook. [decide] is the only
   place a scheduler is consulted; [run], [replay] and [resume] call it,
   and the live backend is [run] over fiber-hosted processes, so every
   backend and every re-execution makes the same decisions by
   construction. It builds no closure per decision, and journal entries
   only when a hook is present. *)

type ('m, 'a) driver = {
  cfg : ('m, 'a) config;
  c : ('m, 'a) core;
  t_start : float;
  emit : (Journal.entry -> unit) option;
}

let make_driver ?slot ?emit (cfg : ('m, 'a) config) =
  let c =
    core_for ?slot ?faults:cfg.faults ?fuzz:cfg.fuzz ~record:cfg.record
      ~history:cfg.scheduler.Scheduler.history ~mediator:cfg.mediator cfg.processes
  in
  enqueue_starts c;
  { cfg; c; t_start = (if Option.is_some cfg.wall_limit then now () else 0.0); emit }

let coords_of (v : pending_view) = { Journal.src = v.src; dst = v.dst; seq = v.seq }

(* The run is over once nothing is pending or the step budget is spent. *)
let finished c ~max_steps =
  if Pending_set.is_empty c.pending then
    Some (if all_halted c then All_halted else Quiescent)
  else if c.steps >= max_steps then Some Cutoff
  else None

let watchdog_fired d =
  (match d.cfg.fuel with Some f -> d.c.decisions >= f | None -> false)
  ||
  match d.cfg.wall_limit with
  | None -> false
  | Some limit ->
      (* throttled: the clock is only consulted every 256 decisions *)
      d.c.decisions land 255 = 0 && now () -. d.t_start > limit

(* The watchdog's end: remaining messages are dropped so sent =
   delivered + dropped conservation still holds. *)
let time_out c =
  drop_all_remaining c;
  Obs.Metrics.Builder.timed_out c.mb

(* Redirect the decision to the oldest deliverable item. *)
let fallback d (reason : Journal.reason) =
  let c = d.c in
  (match reason with
  | Invalid -> Obs.Metrics.Builder.invalid_decision c.mb
  | Sched_exn -> Obs.Metrics.Builder.scheduler_exn c.mb
  | Blocked -> ());
  (match oldest_deliverable c with
  | Some v ->
      (match d.emit with
      | Some f -> f (Journal.Fallback (reason, Some (coords_of v)))
      | None -> ());
      deliver_step c v.id
  | None -> (
      (* everything withheld: burn the decision (pins and windows expire
         at fixed decision counts, so this always clears) *)
      match d.emit with Some f -> f (Journal.Fallback (reason, None)) | None -> ()));
  None

(* One decision; [None] while the run goes on. *)
let decide d =
  let c = d.c and cfg = d.cfg in
  match finished c ~max_steps:cfg.max_steps with
  | Some _ as t -> t
  | None when watchdog_fired d ->
      time_out c;
      (match d.emit with Some f -> f Journal.Watchdog | None -> ());
      Some Timed_out
  | None -> (
      tick c;
      match
        if cfg.scheduler.relaxed then None else starving c ~bound:cfg.starvation_bound
      with
      | Some v ->
          Obs.Metrics.Builder.starved c.mb;
          (match d.emit with Some f -> f (Journal.Forced (coords_of v)) | None -> ());
          deliver_step c v.id;
          None
      | None -> (
          (* fatal exceptions (resource exhaustion, violated assertions —
             genuine scheduler bugs) re-raise with their backtrace; any
             other is a recorded fallback *)
          match cfg.scheduler.choose ~step:c.steps ~history:c.pattern ~pending:c.pending with
          | exception ((Stack_overflow | Out_of_memory | Assert_failure _) as e) ->
              Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())
          | exception _ -> fallback d Journal.Sched_exn
          | Deliver id when item_mem c id ->
              (* a choice the environment is withholding is redirected *)
              if Option.is_some c.faults && blocked c id then fallback d Journal.Blocked
              else begin
                (match (d.emit, item_get c id) with
                | Some f, Some it -> f (Journal.Chose (coords_of (Pending_set.view_of it.node)))
                | _ -> ());
                deliver_step c id;
                None
              end
          | Deliver _ -> fallback d Journal.Invalid
          | Stop_delivery when cfg.scheduler.relaxed ->
              drop_all_remaining c;
              (match d.emit with Some f -> f Journal.Stopped | None -> ());
              Some Deadlocked
          | Stop_delivery ->
              (* non-relaxed schedulers may not stop: force oldest *)
              fallback d Journal.Invalid))

let rec decide_all d = match decide d with None -> decide_all d | Some t -> t

let run_native ?slot ?emit (cfg : ('m, 'a) config) =
  cfg.scheduler.Scheduler.reset ();
  let d = make_driver ?slot ?emit cfg in
  outcome_of d.c (decide_all d)

let run ?slot cfg = run_native ?slot cfg
let run_journaled ~emit cfg = run_native ~emit cfg

(* [replay] and [resume]: the journal's own config re-run through
   [decide], whose hook checks each entry it makes against the stored
   entry at the same index — [decide] makes exactly one entry per
   decision that does not end on [finished], so the two line up. While
   stored entries remain the wall clock is not read (the prefix runs with
   [wall_limit = None]) and a stored [Watchdog] ends the run as
   [Timed_out] where it stands, so a wall-clock journal replays on any
   host; fuel counts decisions and re-fires natively. [at_end] takes
   over, with the real config, once the stored entries run out. *)
let rerun ~entries ~at_end (cfg : ('m, 'a) config) =
  cfg.scheduler.Scheduler.reset ();
  let len = Array.length entries in
  let pos = ref 0 in
  let check e =
    let i = !pos in
    if not (Journal.equal e entries.(i)) then
      replay_fail "journal entry %d: the run decided %s, the journal says %s" i
        (Journal.entry_repr e) (Journal.entry_repr entries.(i));
    pos := i + 1
  in
  let d = make_driver ~emit:check cfg in
  let prefix = { d with cfg = { cfg with wall_limit = None } } in
  let ended t =
    if !pos < len then
      replay_fail "journal entry %d (%s): the run already ended" !pos
        (Journal.entry_repr entries.(!pos));
    t
  in
  let rec go () =
    if !pos >= len then at_end d
    else
      match entries.(!pos) with
      | Journal.Watchdog when Option.is_none (finished d.c ~max_steps:cfg.max_steps) ->
          incr pos;
          time_out d.c;
          ended Timed_out
      | _ -> ( match decide prefix with None -> go () | Some t -> ended t)
  in
  outcome_of d.c (go ())

let resume ~entries ?emit cfg = rerun ~entries ~at_end:(fun d -> decide_all { d with emit }) cfg

let replay ?upto ~entries cfg =
  let entries =
    match upto with
    | None -> entries
    | Some k when k < 0 -> invalid_arg "Runner.replay: ~upto must be >= 0"
    | Some k when k >= Array.length entries -> entries
    | Some k -> Array.sub entries 0 k
  in
  (* time travel: the run freezes where the journal prefix ends *)
  rerun ~entries
    ~at_end:(fun d -> Option.value (finished d.c ~max_steps:cfg.max_steps) ~default:Cutoff)
    cfg

let moves_with_wills processes (o : 'a outcome) =
  Array.mapi
    (fun pid mv -> match mv with Some _ -> mv | None -> processes.(pid).will ())
    o.moves

let moves_with_defaults ~default (o : 'a outcome) =
  Array.mapi (fun pid mv -> match mv with Some a -> a | None -> default pid) o.moves

(* No message exists before some process starts, so a run's first step
   delivers a start signal to a process not yet started, which emits
   [Started]: a run that took a step and kept no event did not record. *)
let recorded_trace ~who (o : 'a outcome) =
  match o.trace with
  | [] when o.steps > 0 ->
      invalid_arg
        (who ^ ": the run kept no trace; build its Runner.config with ~record:true")
  | trace -> trace

let message_pattern (o : 'a outcome) =
  List.filter_map
    (function
      | Sent { src; dst; seq } -> Some (Scheduler.P_sent { src; dst; seq })
      | Delivered { src; dst; seq } -> Some (Scheduler.P_delivered { src; dst; seq })
      | Dropped { src; dst; seq } -> Some (Scheduler.P_dropped { src; dst; seq })
      | Moved { who; _ } -> Some (Scheduler.P_moved who)
      | Halted p -> Some (Scheduler.P_halted p)
      | Started p -> Some (Scheduler.P_started p)
      | Fault { kind; src; dst; seq } -> Some (Scheduler.P_fault { kind; src; dst; seq }))
    (recorded_trace ~who:"Runner.message_pattern" o)

(* ------------------------------------------------------------------ *)
(* Step: the model checker's branching hook. Same core, no scheduler,
   no fault plan, no watchdogs — the caller IS the environment and picks
   every delivery itself. *)

module Step = struct
  type ('m, 'a) t = ('m, 'a) core

  let create ?mediator procs =
    let c = create_core ~record:true ~history:false ~mediator procs in
    enqueue_starts c;
    c

  let deliver_starts c =
    (* Deliver the environment's start signals eagerly, in pid order. The
       runner activates a process's start before its first receive
       regardless of schedule, so this normalisation is behaviour-
       preserving and leaves every pending item a real message. *)
    let rec next () =
      match Pending_set.find c.pending (fun v -> v.src = env_pid) with
      | Some v ->
          deliver_step c v.id;
          next ()
      | None -> ()
    in
    next ()

  let pending c = c.pending
  let steps c = c.steps
  let pending_all_halted c =
    (not (Pending_set.is_empty c.pending))
    && Pending_set.find c.pending (fun v -> v.dst >= 0 && v.dst < c.n && not c.halted.(v.dst))
       = None

  let find c ~src ~dst ~seq =
    Pending_set.find c.pending (fun v -> v.src = src && v.dst = dst && v.seq = seq)

  let deliver c ~id =
    if not (item_mem c id) then
      invalid_arg (Printf.sprintf "Runner.Step.deliver: id %d is not pending" id);
    deliver_step c id

  let finish c =
    if not (Pending_set.is_empty c.pending) then
      invalid_arg "Runner.Step.finish: messages still pending (use stop or cutoff)";
    outcome_of c
      (if all_halted c then All_halted else Quiescent)

  let stop c =
    (* The relaxed environment's Stop_delivery: mediator-batch atomicity
       first, then drop everything (exactly [run]'s Deadlocked path). *)
    drop_all_remaining c;
    outcome_of c Deadlocked

  let cutoff c =
    outcome_of c Cutoff

  let state_hash c =
    (* Canonical fingerprint of the driver-visible state: the pending
       multiset (keyed by channel coordinates — a multiset because the
       pending-set's internal order is scheduler-irrelevant), payload
       hashes, per-process moved/halted/started flags and the channel seq
       counters. Batch ids are summarised by their partially-delivered
       bit, which is all the stop rule can observe. Process-internal
       state is NOT covered, so the model checker counts states with it
       but never prunes on it. *)
    let entries = ref [] in
    Pending_set.iter c.pending (fun v ->
        let ph =
          match item_get c v.id with
          | Some { payload = Some m; _ } -> Hashtbl.hash_param 256 256 m
          | _ -> 0
        in
        entries := (v.src, v.dst, v.seq, (if batch_mem c v.batch then 1 else 0), ph) :: !entries);
    (* monomorphic sort: the tuples are all-int, and this runs once per
       explored state in the model checker — no polymorphic compare *)
    let cmp_entry (a1, a2, a3, a4, a5) (b1, b2, b3, b4, b5) =
      let c = Int.compare a1 b1 in
      if c <> 0 then c
      else
        let c = Int.compare a2 b2 in
        if c <> 0 then c
        else
          let c = Int.compare a3 b3 in
          if c <> 0 then c
          else
            let c = Int.compare a4 b4 in
            if c <> 0 then c else Int.compare a5 b5
    in
    let entries = List.sort cmp_entry !entries in
    let h = ref (Hashtbl.hash_param 256 256 entries) in
    let mix v = h := (!h * 0x01000193) lxor (v land max_int) in
    Array.iter (fun m -> mix (Hashtbl.hash_param 256 256 m)) c.moves;
    Array.iter (fun b -> mix (if b then 1 else 2)) c.halted;
    Array.iter (fun b -> mix (if b then 3 else 4)) c.started;
    Array.iter mix c.seq;
    !h land max_int
end
