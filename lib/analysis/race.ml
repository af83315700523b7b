open Sim

let analyzer = "race"

(* A delivery, identified schedule-independently by its channel position:
   the seq-th message from src to dst (the paper's (i,j,k)). Start signals
   have src = env_pid. *)
type entry = { e_src : int; e_dst : int; e_seq : int }

let entry_is_start e = e.e_src = Types.env_pid

let pp_entry fmt e =
  if entry_is_start e then Format.fprintf fmt "start(%d)" e.e_dst
  else Format.fprintf fmt "(%d->%d #%d)" e.e_src e.e_dst e.e_seq

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
        log := { e_src = v.Types.src; e_dst = v.Types.dst; e_seq = v.Types.seq } :: !log;
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
                    v.Types.src = e.e_src && v.Types.dst = e.e_dst && v.Types.seq = e.e_seq)
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

type 'a slot = { trig : entry; mutable rev_sig : 'a sig_ev list }

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
          | Some { trig; rev_sig = [] } when (not (entry_is_start trig)) && trig.e_dst = p -> ()
          | _ -> push { e_src = Types.env_pid; e_dst = p; e_seq = 1 })
      | Types.Delivered { src; dst; seq } -> push { e_src = src; e_dst = dst; e_seq = seq }
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
(* Happens-before over one observed schedule. Candidate races: two
   message deliveries to the same process whose order the scheduler chose
   (the later message's send does not causally depend on the earlier
   delivery). Start signals are excluded: the runner orders start before
   every receive semantically, so their position carries no information. *)

type candidate = { c_dst : int; c_first : entry; c_second : entry }

let candidates_of_slots ~n slots =
  let clock = Array.init n (fun _ -> Vclock.zero n) in
  let send_clock : (int * int * int, Vclock.t) Hashtbl.t = Hashtbl.create 64 in
  let seq_out = Array.make_matrix n n 0 in
  (* deliveries.(q): (entry, q's activation count at that delivery), newest first *)
  let deliveries = Array.make n [] in
  List.iter
    (fun s ->
      let e = s.trig in
      let p = e.e_dst in
      if p >= 0 && p < n then begin
        let base =
          if entry_is_start e then clock.(p)
          else begin
            let mc =
              try Hashtbl.find send_clock (e.e_src, e.e_dst, e.e_seq)
              with Not_found -> Vclock.zero n
            in
            Vclock.join clock.(p) mc
          end
        in
        clock.(p) <- Vclock.tick base p;
        if not (entry_is_start e) then
          deliveries.(p) <- (e, Vclock.get clock.(p) p) :: deliveries.(p);
        (* stamp the sends this activation emitted *)
        List.iter
          (function
            | S dst when dst >= 0 && dst < n ->
                seq_out.(p).(dst) <- seq_out.(p).(dst) + 1;
                Hashtbl.replace send_clock (p, dst, seq_out.(p).(dst)) clock.(p)
            | S _ | M _ | H -> ())
          (signature s)
      end)
    slots;
  let cands = ref [] in
  for q = n - 1 downto 0 do
    let ds = List.rev deliveries.(q) in
    (* all ordered pairs (i < j) with send(j) not causally after deliver(i) *)
    let rec pairs = function
      | [] -> ()
      | (e1, c1) :: rest ->
          List.iter
            (fun (e2, _) ->
              let mc2 =
                try Hashtbl.find send_clock (e2.e_src, e2.e_dst, e2.e_seq)
                with Not_found -> Vclock.zero n
              in
              if Vclock.get mc2 q < c1 then
                cands := { c_dst = q; c_first = e1; c_second = e2 } :: !cands)
            rest;
          pairs rest
    in
    pairs ds
  done;
  List.rev !cands

let candidates_of_outcome (o : 'a Types.outcome) =
  let n = Array.length o.Types.moves in
  candidates_of_slots ~n (slots_of_trace o.Types.trace)

(* ------------------------------------------------------------------ *)

type verdict = Outcome_race | Effect_race

type race = {
  dst : int;
  first : entry;
  second : entry;
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
let is_clean r = r.races = []

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
  Runner.run (Runner.config ~max_steps ~starvation_bound:max_int ~scheduler:sched (make ()))

let analyze ?schedulers ?(max_steps = 20_000) ?(max_candidates = 400) ~make () =
  let schedulers = match schedulers with Some s -> s | None -> default_schedulers () in
  let seen : (int * entry * entry, unit) Hashtbl.t = Hashtbl.create 64 in
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
      let n = Array.length o.Types.moves in
      let slots = slots_of_trace o.Types.trace in
      List.iter
        (fun { c_dst; c_first; c_second } ->
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
        (candidates_of_slots ~n slots))
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
