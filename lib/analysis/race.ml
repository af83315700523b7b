open Sim

let analyzer = "race"

(* A delivery is identified schedule-independently by its channel
   position, an [Mc.entry]: the seq-th message from src to dst (the
   paper's (i,j,k)). Start signals have src = env_pid. *)
let entry_is_start (e : Mc.entry) = e.Mc.src = Types.env_pid

let pp_entry fmt (e : Mc.entry) =
  if entry_is_start e then Format.fprintf fmt "start(%d)" e.Mc.dst else Mc.pp_entry fmt e

(* ------------------------------------------------------------------ *)
(* Observation: run under a scheduler, recording the delivery schedule.
   Start signals are always delivered first: the runner activates a
   process's start before its first receive regardless of schedule, so
   this normalisation is behaviour-preserving and keeps every later slot
   a pure receive activation (clean signatures for comparison). *)

let record_scheduler inner log =
  Scheduler.custom
    ~name:("record:" ^ inner.Scheduler.name)
    ~relaxed:false
    ~history:inner.Scheduler.history
    (fun ~step ~history ~pending ->
      let pick (v : Types.pending_view) =
        log := { Mc.src = v.Types.src; dst = v.Types.dst; seq = v.Types.seq } :: !log;
        Types.Deliver v.Types.id
      in
      match Pending_set.find pending (fun v -> v.Types.src = Types.env_pid) with
      | Some v -> pick v
      | None -> (
          match inner.Scheduler.choose ~step ~history ~pending with
          | Types.Deliver id -> (
              match Pending_set.find pending (fun v -> v.Types.id = id) with
              | Some v -> pick v
              | None -> pick (Pending_set.oldest pending))
          | Types.Stop_delivery -> pick (Pending_set.oldest pending)))

(* Replay: follow [script] in order, delivering the first entry that is
   currently pending — except [hold], which is only eligible once [promote]
   has been delivered. Entries whose message does not exist yet are
   skipped this decision and retried later, so causality re-linearises the
   script around the swap. Off-script deliveries (the reordering changed
   some process's sends) fall back to oldest-first. *)
let replay_scheduler script ~hold ~promote diverged =
  let remaining = ref script in
  let released = ref false in
  Scheduler.custom ~name:"replay" ~relaxed:false ~history:false (fun ~step:_ ~history:_ ~pending ->
      let rec pick acc = function
        | [] -> None
        | e :: rest ->
            if e = hold && not !released then pick (e :: acc) rest
            else begin
              match
                Pending_set.find pending (fun v ->
                    v.Types.src = e.Mc.src && v.Types.dst = e.Mc.dst && v.Types.seq = e.Mc.seq)
              with
              | Some v ->
                  remaining := List.rev_append acc rest;
                  if e = promote then released := true;
                  Some v
              | None -> pick (e :: acc) rest
            end
      in
      match pick [] !remaining with
      | Some v -> Types.Deliver v.Types.id
      | None ->
          diverged := true;
          Types.Deliver (Pending_set.oldest pending).Types.id)

(* ------------------------------------------------------------------ *)
(* Slots: one per delivery decision, carrying the signature of the
   effects the activated process emitted. Signatures ignore sequence
   numbers (reordering shifts them) but keep destinations, actions and
   halts. *)

type 'a sig_ev = S of int | M of 'a | H

type 'a slot = { trig : Mc.entry; mutable rev_sig : 'a sig_ev list }

let slots_of_trace trace =
  let slots = ref [] in
  let cur = ref None in
  let push t =
    let s = { trig = t; rev_sig = [] } in
    slots := s :: !slots;
    cur := Some s
  in
  let emit ev = match !cur with Some s -> s.rev_sig <- ev :: s.rev_sig | None -> () in
  List.iter
    (fun ev ->
      match (ev : 'a Types.trace_event) with
      | Types.Started p -> (
          (* a Started directly after "Delivered to p" with nothing emitted
             yet is the implicit start the runner performs before the first
             receive: same scheduling slot *)
          match !cur with
          | Some { trig; rev_sig = [] } when (not (entry_is_start trig)) && trig.Mc.dst = p -> ()
          | _ -> push { Mc.src = Types.env_pid; dst = p; seq = 1 })
      | Types.Delivered { src; dst; seq } -> push { Mc.src; dst; seq }
      | Types.Sent { dst; _ } -> emit (S dst)
      | Types.Moved { action; _ } -> emit (M action)
      | Types.Halted _ -> emit H
      | Types.Dropped _ -> ()
      (* injected channel faults are environment action, not an effect of
         the activated process: they carry no ordering signature *)
      | Types.Fault _ -> ())
    trace;
  List.rev !slots

let signature s = List.rev s.rev_sig

let slot_for slots e = List.find_opt (fun s -> s.trig = e) slots

(* ------------------------------------------------------------------ *)

type verdict = Outcome_race | Effect_race

type race = {
  dst : int;
  first : Mc.entry;
  second : Mc.entry;
  verdict : verdict;
  scheduler : string;
  detail : string;
}

type report = {
  races : race list;
  runs : int;
  candidates : int;
  candidates_skipped : int;  (** dropped by [max_candidates]; never silent *)
  replays : int;
  diverged_replays : int;  (** swaps whose tail left the observed schedule *)
}

let has_outcome_race r = List.exists (fun x -> x.verdict = Outcome_race) r.races

let default_schedulers () =
  [
    Scheduler.fifo ();
    Scheduler.lifo ();
    Scheduler.random (Random.State.make [| 0xACE; 1 |]);
    Scheduler.random (Random.State.make [| 0xACE; 2 |]);
    Scheduler.round_robin ();
    Scheduler.adaptive_laggard (Random.State.make [| 0xACE; 3 |]);
  ]

let run_under ~max_steps ~make sched =
  Runner.run
    (Runner.config ~record:true ~max_steps ~starvation_bound:max_int ~scheduler:sched (make ()))

let analyze ?schedulers ?(max_steps = 20_000) ?(max_candidates = 400) ~make () =
  let schedulers = match schedulers with Some s -> s | None -> default_schedulers () in
  let seen : (int * Mc.entry * Mc.entry, unit) Hashtbl.t = Hashtbl.create 64 in
  let races = ref [] in
  let runs = ref 0 in
  let candidates = ref 0 in
  let skipped = ref 0 in
  let replays = ref 0 in
  let diverged_replays = ref 0 in
  List.iter
    (fun sched ->
      let log = ref [] in
      let o = run_under ~max_steps ~make (record_scheduler sched log) in
      incr runs;
      let schedule = List.rev !log in
      let slots = slots_of_trace o.Types.trace in
      (* candidate races: two deliveries to one process whose order was
         the scheduler's free choice (the later message's send does not
         causally depend on the earlier delivery) *)
      List.iter
        (fun (c_dst, c_first, c_second) ->
          let key = (c_dst, c_first, c_second) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            incr candidates;
            if !replays >= max_candidates then incr skipped
            else begin
              incr replays;
              let diverged = ref false in
              let sched' = replay_scheduler schedule ~hold:c_first ~promote:c_second diverged in
              let o' = run_under ~max_steps ~make sched' in
              if !diverged then incr diverged_replays;
              let slots' = slots_of_trace o'.Types.trace in
              let verdict =
                if o.Types.moves <> o'.Types.moves then
                  Some
                    ( Outcome_race,
                      Format.asprintf "delivering %a before %a changes the final moves"
                        pp_entry c_second pp_entry c_first )
                else begin
                  let differs e =
                    match (slot_for slots e, slot_for slots' e) with
                    | Some a, Some b -> signature a <> signature b
                    | Some _, None | None, Some _ -> true
                    | None, None -> false
                  in
                  if differs c_first || differs c_second then
                    Some
                      ( Effect_race,
                        Format.asprintf
                          "delivering %a before %a changes player %d's emitted effects \
                           (final moves agree)"
                          pp_entry c_second pp_entry c_first c_dst )
                  else None
                end
              in
              match verdict with
              | None -> ()
              | Some (verdict, detail) ->
                  races :=
                    {
                      dst = c_dst;
                      first = c_first;
                      second = c_second;
                      verdict;
                      scheduler = sched.Scheduler.name;
                      detail;
                    }
                    :: !races
            end
          end)
        (Mc.races_of_outcome o))
    schedulers;
  {
    races = List.rev !races;
    runs = !runs;
    candidates = !candidates;
    candidates_skipped = !skipped;
    replays = !replays;
    diverged_replays = !diverged_replays;
  }

let findings report =
  List.map
    (fun r ->
      let subject = Printf.sprintf "player %d" r.dst in
      let detail = Printf.sprintf "%s [under %s]" r.detail r.scheduler in
      match r.verdict with
      | Outcome_race -> Finding.v ~analyzer ~subject detail
      | Effect_race -> Finding.warning ~analyzer ~subject detail)
    report.races
  @
  if report.candidates_skipped > 0 then
    [
      Finding.warning ~analyzer ~subject:"coverage"
        (Printf.sprintf "%d candidate pairs not replayed (max_candidates cap)"
           report.candidates_skipped);
    ]
  else []
