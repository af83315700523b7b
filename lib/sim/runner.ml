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
    ?(record = true) ~scheduler processes =
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
   loop) and [Step] (the model checker's replay-free branching hook).
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
     it. With both off a run keeps nothing per message. *)
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

let create_core ?faults ?fuzz ?(record = true) ~history ~mediator procs =
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

let emit c ev = if c.record then c.trace <- ev :: c.trace
let emit_pat c p = if c.history then c.pattern <- p :: c.pattern

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
        emit c (Fault { kind = Duplicate; src; dst; seq = s });
        emit_pat c (Scheduler.P_fault { kind = Duplicate; src; dst; seq = s })
      end
      else begin
        emit c (Sent { src; dst; seq = s });
        emit_pat c (Scheduler.P_sent { src; dst; seq = s });
        match fault with
        | Some Delay ->
            Obs.Metrics.Builder.injected_delay c.mb;
            emit c (Fault { kind = Delay; src; dst; seq = s });
            emit_pat c (Scheduler.P_fault { kind = Delay; src; dst; seq = s })
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
          emit c (Moved { who = pid; action = a });
          emit_pat c (Scheduler.P_moved pid));
      apply_effects c pid batch rest
  | Halt :: rest ->
      if not c.halted.(pid) then begin
        c.halted.(pid) <- true;
        emit c (Halted pid);
        emit_pat c (Scheduler.P_halted pid)
      end;
      apply_effects c pid batch rest

and activate_start c pid =
  if (not c.started.(pid)) && not c.halted.(pid) then begin
    c.started.(pid) <- true;
    emit c (Started pid);
    emit_pat c (Scheduler.P_started pid);
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
                emit c (Fault { kind = Corrupt; src; dst; seq = s });
                emit_pat c (Scheduler.P_fault { kind = Corrupt; src; dst; seq = s });
                fuzz ~src ~dst ~seq:s m
            | _ -> m
          in
          emit c (Delivered { src; dst; seq = s });
          emit_pat c (Scheduler.P_delivered { src; dst; seq = s });
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
              emit c (Dropped { src = v.src; dst = v.dst; seq = v.seq });
              emit_pat c (Scheduler.P_dropped { src = v.src; dst = v.dst; seq = v.seq })));
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
          emit c (Fault { kind = Crash_restart; src = env_pid; dst = pid; seq = len });
          emit_pat c
            (Scheduler.P_fault { kind = Crash_restart; src = env_pid; dst = pid; seq = len })
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
       produced it keeps evolving (Step forks) *)
    moves = Array.copy c.moves;
    termination;
    messages_sent = c.messages_sent;
    messages_delivered = c.messages_delivered;
    steps = c.steps;
    trace = List.rev c.trace;
    halted = Array.copy c.halted;
    metrics = Obs.Metrics.Builder.finish c.mb ~batches:c.next_batch ~steps:c.steps;
  }

(* Fork the driver state. [processes] must be the caller's own copy of
   the process array (process state lives in closures the driver cannot
   copy). Pending ids, seqs and arrival order are preserved, so
   delivering the same ids in the same order in both forks yields
   identical traces. *)
let clone_core c ~processes =
  let pending' = Pending_set.create () in
  let items' = Array.make (Array.length c.items) None in
  (* Re-append the live views in order: ids, seqs and relative order
     are preserved, so the clone is observationally identical. *)
  Pending_set.iter c.pending (fun v ->
      match item_get c v.id with
      | None -> ()
      | Some it ->
          let node = Pending_set.append pending' v in
          items'.(v.id) <- Some { it with node });
  {
    c with
    procs = processes;
    mb = Obs.Metrics.Builder.copy c.mb;
    halted = Array.copy c.halted;
    started = Array.copy c.started;
    moves = Array.copy c.moves;
    pending = pending';
    items = items';
    seq = Array.copy c.seq;
    delivered_batches = Bytes.copy c.delivered_batches;
    crash_announced = Array.copy c.crash_announced;
  }

(* ------------------------------------------------------------------ *)
(* Decision journal: one entry per scheduler decision — enough to replay
   a run without its scheduler (time-travel) or to resume it mid-way in
   a fresh process (crash-restart). Entries carry channel coordinates
   (src, dst, seq) instead of item ids: ids are an implementation detail
   of the pending set, while coordinates are stable across re-execution
   and meaningful inside a store file. Process closures cannot be
   serialized, so a checkpoint IS the journal prefix: restore = rebuild
   the config from its seed and re-execute the scripted decisions. *)

module Journal = struct
  type coords = { src : pid; dst : pid; seq : int }

  type reason = Blocked | Invalid | Sched_exn

  type entry =
    | Forced of coords
    | Chose of coords
    | Fallback of reason * coords option
    | Stopped
    | Watchdog

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
   place a scheduler is consulted natively; [run] and [resume] (past its
   scripted prefix) call it, and the live backend is [run] over
   fiber-hosted processes, so every backend makes the same decisions by
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

let count_fallback c (reason : Journal.reason) =
  match reason with
  | Invalid -> Obs.Metrics.Builder.invalid_decision c.mb
  | Sched_exn -> Obs.Metrics.Builder.scheduler_exn c.mb
  | Blocked -> ()

(* Redirect the decision to the oldest deliverable item. *)
let fallback d reason =
  let c = d.c in
  count_fallback c reason;
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

(* [resume] and [replay]: a journal prefix executed instead of consulting
   the scheduler. With [sync_scheduler] the scheduler is still called
   for every scripted entry it originally decided — advancing its
   internal state (RNG draws, counters) exactly as the original run did
   — and its answers are cross-checked against the script; divergence
   raises [Replay_mismatch] instead of silently producing a different
   run, and after the prefix the loop continues natively, passing
   [emit] only the entries it decides itself. Without [sync_scheduler]
   the scheduler is never consulted and the run freezes (as a Cutoff)
   when the script runs out: time-travel. *)
let run_scripted ?emit ~script ~sync_scheduler (cfg : ('m, 'a) config) : 'a outcome =
  if sync_scheduler then cfg.scheduler.Scheduler.reset ();
  let d = make_driver ?emit cfg in
  let c = d.c in
  let coords_eq (a : Journal.coords) (b : Journal.coords) =
    a.Journal.src = b.Journal.src && a.Journal.dst = b.Journal.dst
    && a.Journal.seq = b.Journal.seq
  in
  let find_coords (co : Journal.coords) =
    Pending_set.find c.pending (fun (v : pending_view) ->
        v.src = co.Journal.src && v.dst = co.Journal.dst && v.seq = co.Journal.seq)
  in
  (* the scheduler consulted for a scripted entry, with [decide]'s
     exception policy: [Error] is a recorded fallback *)
  let choose () =
    match cfg.scheduler.choose ~step:c.steps ~history:c.pattern ~pending:c.pending with
    | d -> Ok d
    | exception ((Stack_overflow | Out_of_memory | Assert_failure _) as e) ->
        Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())
    | exception _ -> Error ()
  in

  (* Execute one scripted entry; [Some t] means the entry ends the run.
     Every entry is cross-checked against the driver's own deterministic
     state (starvation override, fallback target, pending membership) —
     a journal replayed against the wrong config fails loudly. *)
  let exec_scripted entry_no (e : Journal.entry) =
    let deliver_coords what co =
      match find_coords co with
      | Some v -> deliver_step c v.id
      | None ->
          replay_fail "journal entry %d (%s %s): message is not pending" entry_no what
            (Journal.coords_repr co)
    in
    match e with
    | Journal.Watchdog ->
        (* the watchdog fires BEFORE the decision counter ticks *)
        time_out c;
        Some Timed_out
    | Journal.Stopped ->
        tick c;
        (if sync_scheduler then
           match choose () with
           | Ok Stop_delivery when cfg.scheduler.relaxed -> ()
           | _ ->
               replay_fail "journal entry %d: scheduler did not STOP where the journal stopped"
                 entry_no);
        drop_all_remaining c;
        Some Deadlocked
    | Journal.Forced co ->
        tick c;
        (* the fairness override is a pure function of driver state: it
           must fire here whether or not the scheduler is synced *)
        (match
           if cfg.scheduler.relaxed then None else starving c ~bound:cfg.starvation_bound
         with
        | Some v when coords_eq (coords_of v) co -> ()
        | _ ->
            replay_fail "journal entry %d: starvation override mismatch at %s" entry_no
              (Journal.coords_repr co));
        Obs.Metrics.Builder.starved c.mb;
        deliver_coords "forced" co;
        None
    | Journal.Chose co ->
        tick c;
        (if sync_scheduler then
           match choose () with
           | Ok (Deliver id) when item_mem c id -> (
               match item_get c id with
               | Some it ->
                   let v = Pending_set.view_of it.node in
                   if not (coords_eq (coords_of v) co) then
                     replay_fail "journal entry %d: scheduler chose %s, journal says %s"
                       entry_no
                       (Journal.coords_repr (coords_of v))
                       (Journal.coords_repr co)
                   else if Option.is_some c.faults && blocked c id then
                     replay_fail "journal entry %d: choice %s is blocked on replay" entry_no
                       (Journal.coords_repr co)
               | None -> assert false)
           | _ ->
               replay_fail "journal entry %d: scheduler diverged from journaled choice %s"
                 entry_no (Journal.coords_repr co));
        deliver_coords "chose" co;
        None
    | Journal.Fallback (reason, co_opt) ->
        tick c;
        (if sync_scheduler then
           let classified =
             match choose () with
             | Error () -> Some Journal.Sched_exn
             | Ok (Deliver id) when not (item_mem c id) -> Some Journal.Invalid
             | Ok (Deliver id) ->
                 if Option.is_some c.faults && blocked c id then Some Journal.Blocked else None
             | Ok Stop_delivery ->
                 if cfg.scheduler.relaxed then None else Some Journal.Invalid
           in
           match classified with
           | Some r when r = reason -> ()
           | _ ->
               replay_fail "journal entry %d: fallback reason mismatch (expected %s)" entry_no
                 (Journal.reason_repr reason));
        count_fallback c reason;
        (match (co_opt, oldest_deliverable c) with
        | Some co, Some v when coords_eq (coords_of v) co -> deliver_step c v.id
        | None, None -> () (* burnt decision, as journaled *)
        | Some co, _ ->
            replay_fail "journal entry %d: fallback target mismatch at %s" entry_no
              (Journal.coords_repr co)
        | None, Some _ ->
            replay_fail "journal entry %d: burnt decision but a message is deliverable"
              entry_no);
        None
  in

  (* The fuel/wall watchdog is checked only natively: during a scripted
     prefix the journal already proves the original run did not fire
     there, and wall-clock is environmental — re-evaluating it would let
     a slow replaying host diverge from the recorded decisions. *)
  let rec scripted pos =
    match finished c ~max_steps:cfg.max_steps with
    | Some t -> t
    | None when pos < Array.length script -> (
        match exec_scripted pos script.(pos) with Some t -> t | None -> scripted (pos + 1))
    | None when sync_scheduler -> decide_all d
    | None -> Cutoff (* time-travel: the journal prefix ends here — freeze the run *)
  in
  outcome_of c (scripted 0)

let resume ~entries ?emit cfg = run_scripted ?emit ~script:entries ~sync_scheduler:true cfg

let replay ?upto ~entries cfg =
  let entries =
    match upto with
    | None -> entries
    | Some k when k < 0 -> invalid_arg "Runner.replay: ~upto must be >= 0"
    | Some k when k >= Array.length entries -> entries
    | Some k -> Array.sub entries 0 k
  in
  run_scripted ~script:entries ~sync_scheduler:false cfg

let moves_with_wills processes (o : 'a outcome) =
  Array.mapi
    (fun pid mv -> match mv with Some _ -> mv | None -> processes.(pid).will ())
    o.moves

let moves_with_defaults ~default (o : 'a outcome) =
  Array.mapi (fun pid mv -> match mv with Some a -> a | None -> default pid) o.moves

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
    o.trace

(* ------------------------------------------------------------------ *)
(* Step: the model checker's branching hook. Same core, no scheduler,
   no fault plan, no watchdogs — the caller IS the environment and picks
   every delivery itself. *)

module Step = struct
  type ('m, 'a) t = ('m, 'a) core

  let create ?mediator procs =
    let c = create_core ~history:false ~mediator procs in
    enqueue_starts c;
    c

  let deliver_starts c =
    (* Deliver the environment's start signals eagerly, in pid order. The
       runner activates a process's start before its first receive
       regardless of schedule, so this normalisation is behaviour-
       preserving (same argument as the race detector's recorder) and
       leaves every pending item a real message. *)
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
  let moves c = c.moves
  let halted c = c.halted
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
       state is NOT covered — combine with an instance digest for a full
       fingerprint (see Analysis.Mc). *)
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

  let clone c ~processes =
    if Array.length processes <> c.n then
      invalid_arg "Runner.Step.clone: processes array length changed";
    clone_core c ~processes
end
