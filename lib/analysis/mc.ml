open Sim

let analyzer = "model-check"

type entry = { src : int; dst : int; seq : int }

let pp_entry fmt e = Format.fprintf fmt "(%d->%d #%d)" e.src e.dst e.seq

type ('m, 'a) system = {
  sys_make : unit -> ('m, 'a) Types.process array;
  sys_mediator : int option;
  sys_relaxed : bool;
}

let system ?mediator ?(relaxed = false) make =
  { sys_make = make; sys_mediator = mediator; sys_relaxed = relaxed }

type 'a property = {
  p_name : string;
  p_check :
    stopped:bool -> willed:'a option array -> 'a Types.outcome -> string option;
}

let property p_name p_check = { p_name; p_check }

type backend = Dpor | Naive

type 'a outcome_class = {
  cls_moves : 'a option array;
  cls_willed : 'a option array;
  cls_termination : Types.termination;
  cls_stopped : bool;
  cls_count : int;
  cls_witness : entry list;
}

type 'a counterexample = {
  ce_property : string;
  ce_reason : string;
  ce_script : entry list;
  ce_starts : int list option;
  ce_stopped : bool;
  ce_outcome : 'a Types.outcome;
  ce_original : int;
}

type stats = {
  backend_name : string;
  runs : int;
  traces : int;
  truncated : int;
  sleep_blocked : int;
  states : int;
  revisits : int;
  stop_cuts : int;
  minimize_replays : int;
  max_frontier : int;
  capped : bool;
}

type 'a verdict = {
  pass : bool;
  confluence : Explore.agreement;
  classes : 'a outcome_class list;
  violation : 'a counterexample option;
  deadlocks : int;
  worst_wait : int;
  exhaustive : bool;
  stats : stats;
}

exception Replay_diverged of string

(* ------------------------------------------------------------------ *)
(* Bitsets over event indices (Bytes-backed: hb relations are quadratic
   in history length, so one bit per pair, not one list cell). *)

let bs_make n = Bytes.make ((n + 8) / 8) '\000'
let bs_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bs_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let bs_union a b =
  for k = 0 to Bytes.length a - 1 do
    Bytes.set a k (Char.chr (Char.code (Bytes.get a k) lor Char.code (Bytes.get b k)))
  done

(* ------------------------------------------------------------------ *)
(* Happens-before over one executed history.

   Events are the real message deliveries, in execution order; [sp.(k)]
   is the index of the delivery whose activation sent event k's message
   (-1 when a start activation sent it). Derived relations, as index
   bitsets:

     sendpast(k) = {sp(k)} ∪ hb(sp(k))      (the causal past of the SEND)
     hb(k)       = sendpast(k) ∪ {p(k)} ∪ hb(p(k))
                   where p(k) = previous delivery to the same destination
                   (a process is a function of its delivery sequence, so
                   per-destination order is causal).

   Two deliveries i < j to the same destination are a RACE when
   i ∉ sendpast(j): j's message already existed when i was delivered, so
   their order was the environment's free choice — DPOR's backtrack
   points. *)

let hb_of ~(events : entry array) ~(sp : int array) =
  let l = Array.length events in
  let hb = Array.init l (fun _ -> bs_make l) in
  let spast = Array.init l (fun _ -> bs_make l) in
  let last : (int, int) Hashtbl.t = Hashtbl.create 16 in
  for k = 0 to l - 1 do
    if sp.(k) >= 0 then begin
      bs_set spast.(k) sp.(k);
      bs_union spast.(k) hb.(sp.(k))
    end;
    bs_union hb.(k) spast.(k);
    (match Hashtbl.find_opt last events.(k).dst with
    | Some p ->
        bs_set hb.(k) p;
        bs_union hb.(k) hb.(p)
    | None -> ());
    Hashtbl.replace last events.(k).dst k
  done;
  (hb, spast)

(* Races of one run, with the DPOR backtrack alternative: for a race
   (i, j) the branch to queue at node i is event u, the earliest index
   >= i in sendpast(j) ∪ {j}. By minimality every element of u's own
   send-past lies strictly below i, so u's message is pending at node i
   and a strict replay of prefix(i) @ [u] cannot diverge. *)
let races_of ~events ~sp ~cap =
  let l = Array.length events in
  let _hb, spast = hb_of ~events ~sp in
  let races = ref [] in
  let count = ref 0 in
  let capped = ref false in
  let bydst : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  for j = 0 to l - 1 do
    let d = events.(j).dst in
    let prev = try Hashtbl.find bydst d with Not_found -> [] in
    List.iter
      (fun i ->
        if not (bs_get spast.(j) i) then begin
          if !count >= cap then capped := true
          else begin
            incr count;
            let u = ref j in
            (try
               for m = i to j - 1 do
                 if bs_get spast.(j) m then begin
                   u := m;
                   raise Exit
                 end
               done
             with Exit -> ());
            races := (i, j, !u) :: !races
          end
        end)
      prev;
    Hashtbl.replace bydst d (j :: prev)
  done;
  (List.rev !races, !capped)

(* ------------------------------------------------------------------ *)
(* Rebuild (events, sp) from a recorded trace (the naive backend's
   histories and [races_of_outcome]). Each [Sent] is attributed to the
   delivery whose activation emitted it; a [Started] directly after a
   delivery with nothing emitted yet is the implicit start the runner
   performs before a first receive and keeps the attribution; explicit
   start activations attribute their sends to -1. *)
let events_of_trace trace =
  let sent_by : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let events = ref [] in
  let sp = ref [] in
  let nev = ref 0 in
  let cur = ref (-1) in
  let fresh = ref false in
  List.iter
    (fun ev ->
      match (ev : 'a Types.trace_event) with
      | Types.Delivered { src; dst; seq } when src <> Types.env_pid ->
          let parent = try Hashtbl.find sent_by (src, dst, seq) with Not_found -> -1 in
          events := { src; dst; seq } :: !events;
          sp := parent :: !sp;
          cur := !nev;
          incr nev;
          fresh := true
      | Types.Delivered _ ->
          cur := -1;
          fresh := false
      | Types.Started p -> (
          match !events with
          | e :: _ when !fresh && !cur >= 0 && e.dst = p -> ()
          | _ ->
              cur := -1;
              fresh := false)
      | Types.Sent { src; dst; seq } ->
          Hashtbl.replace sent_by (src, dst, seq) !cur;
          fresh := false
      | Types.Moved _ | Types.Halted _ -> fresh := false
      | Types.Dropped _ | Types.Fault _ -> ())
    trace;
  (Array.of_list (List.rev !events), Array.of_list (List.rev !sp))

let races_of_outcome (o : 'a Types.outcome) =
  let events, sp =
    events_of_trace (Runner.recorded_trace ~who:"Mc.races_of_outcome" o)
  in
  let races, _capped = races_of ~events ~sp ~cap:max_int in
  List.map (fun (i, j, _u) -> (events.(i).dst, events.(i), events.(j))) races

(* ------------------------------------------------------------------ *)
(* One execution of the system under the checker's control.

   Strict mode (DPOR branches): the script must be deliverable verbatim
   — every entry pending when its turn comes ([Replay_diverged]
   otherwise, an internal invariant). Once the script is consumed the
   item's sleep set takes effect and the policy delivers the oldest
   pending message not in it (filtering the sleep set after every
   delivery: a sleeping event wakes when a dependent delivery — same
   destination — executes). All enabled asleep means the whole subtree
   is covered by sibling branches: the run is blocked, no outcome.

   Guided mode (counterexample replay): deliver the first script entry
   currently pendable, retrying skipped ones later — causality
   re-linearises the script, so any per-destination-order-preserving
   permutation replays to the same behaviour. With [stop_after] the
   environment stops delivery once no script entry is pendable (the
   relaxed Stop_delivery, mediator-batch atomicity included); otherwise
   oldest-first delivery completes the history. [starts] restricts which
   explicit start signals are delivered (stopped-cut replays: the
   environment never started the others). *)

type 'a exec_res = {
  x_events : entry array;
  x_sp : int array;
  x_sleep_at : entry list array;  (* sleep set at each policy node *)
  x_outcome : 'a Types.outcome option;  (* None: sleep-blocked *)
  x_willed : 'a option array option;
  x_truncated : bool;
  x_fps : int array;  (* state fingerprint before each decision *)
  x_stuck : int option;  (* first stuck-state fingerprint *)
  x_worst : int;  (* worst delivery wait, in steps *)
}

let exec ~sys ~guided ~stop_after ~starts ~script ~sleep ~max_steps ~fingerprints =
  let procs = sys.sys_make () in
  let st = Runner.Step.create ?mediator:sys.sys_mediator procs in
  (match starts with
  | None -> Runner.Step.deliver_starts st
  | Some pids ->
      List.iter
        (fun pid ->
          match
            Pending_set.find (Runner.Step.pending st) (fun v ->
                v.Types.src = Types.env_pid && v.Types.dst = pid)
          with
          | Some v -> Runner.Step.deliver st ~id:v.Types.id
          | None -> ())
        (List.sort_uniq compare pids));
  let sent_by : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let remaining = ref script in
  let sleep_cur = ref (if script = [] then sleep else []) in
  let events = ref [] in
  let nev = ref 0 in
  let sleep_log = ref [] in
  let fps = ref [] in
  let stuck = ref None in
  let worst = ref 0 in
  let truncated = ref false in
  let outcome = ref None in
  let deliver_view (v : Types.pending_view) =
    let wait = Runner.Step.steps st - v.Types.sent_step in
    if wait > !worst then worst := wait;
    let s0 = Runner.Step.steps st in
    let e = { src = v.Types.src; dst = v.Types.dst; seq = v.Types.seq } in
    Runner.Step.deliver st ~id:v.Types.id;
    (* the sends of this activation (implicit start included) carry this
       step's stamp: attribute them to this event *)
    Pending_set.iter (Runner.Step.pending st) (fun w ->
        if w.Types.sent_step = s0 then
          Hashtbl.replace sent_by (w.Types.src, w.Types.dst, w.Types.seq) !nev);
    events := e :: !events;
    incr nev;
    sleep_cur := List.filter (fun z -> z.dst <> e.dst) !sleep_cur
  in
  let rec go () =
    let h = if fingerprints then Runner.Step.state_hash st else 0 in
    if fingerprints then begin
      fps := h :: !fps;
      if !stuck = None && Runner.Step.pending_all_halted st then stuck := Some h
    end;
    if guided then begin
      let rec pick acc = function
        | [] -> None
        | e :: rest -> (
            match Runner.Step.find st ~src:e.src ~dst:e.dst ~seq:e.seq with
            | Some v ->
                remaining := List.rev_append acc rest;
                Some v
            | None -> pick (e :: acc) rest)
      in
      match pick [] !remaining with
      | Some _ when !nev >= max_steps ->
          truncated := true;
          outcome := Some (Runner.Step.cutoff st)
      | Some v ->
          deliver_view v;
          go ()
      | None ->
          if stop_after then outcome := Some (Runner.Step.stop st)
          else if Pending_set.is_empty (Runner.Step.pending st) then
            outcome := Some (Runner.Step.finish st)
          else if !nev >= max_steps then begin
            truncated := true;
            outcome := Some (Runner.Step.cutoff st)
          end
          else begin
            deliver_view (Pending_set.oldest (Runner.Step.pending st));
            go ()
          end
    end
    else if Pending_set.is_empty (Runner.Step.pending st) then
      outcome := Some (Runner.Step.finish st)
    else if !nev >= max_steps then begin
      truncated := true;
      outcome := Some (Runner.Step.cutoff st)
    end
    else
      match !remaining with
      | e :: rest -> (
          match Runner.Step.find st ~src:e.src ~dst:e.dst ~seq:e.seq with
          | Some v ->
              remaining := rest;
              deliver_view v;
              if rest = [] then sleep_cur := sleep;
              go ()
          | None ->
              raise
                (Replay_diverged
                   (Format.asprintf "scripted delivery %a is not pending" pp_entry e)))
      | [] -> (
          sleep_log := !sleep_cur :: !sleep_log;
          let slp = !sleep_cur in
          match
            Pending_set.find (Runner.Step.pending st) (fun v ->
                not
                  (List.exists
                     (fun z ->
                       z.src = v.Types.src && z.dst = v.Types.dst && z.seq = v.Types.seq)
                     slp))
          with
          | Some v ->
              deliver_view v;
              go ()
          | None -> () (* all enabled asleep: subtree covered elsewhere *))
  in
  go ();
  let events_arr = Array.of_list (List.rev !events) in
  let sp =
    Array.map
      (fun e -> try Hashtbl.find sent_by (e.src, e.dst, e.seq) with Not_found -> -1)
      events_arr
  in
  {
    x_events = events_arr;
    x_sp = sp;
    x_sleep_at = Array.of_list (List.rev !sleep_log);
    x_outcome = !outcome;
    x_willed = Option.map (Runner.moves_with_wills procs) !outcome;
    x_truncated = !truncated;
    x_fps = Array.of_list (List.rev !fps);
    x_stuck = !stuck;
    x_worst = !worst;
  }

let replay sys ~script ?starts ~stopped ~max_steps () =
  let xr =
    exec ~sys ~guided:true ~stop_after:stopped ~starts ~script ~sleep:[] ~max_steps
      ~fingerprints:false
  in
  match (xr.x_outcome, xr.x_willed) with
  | Some o, Some w -> (o, w)
  | _ -> raise (Replay_diverged "replay produced no outcome")

(* ------------------------------------------------------------------ *)
(* Rendering helpers (shared by repr / pp_counterexample / findings). *)

let term_str = function
  | Types.All_halted -> "all-halted"
  | Types.Quiescent -> "quiescent"
  | Types.Deadlocked -> "stopped"
  | Types.Cutoff -> "cutoff"
  | Types.Timed_out -> "timed-out"

let agreement_str = function
  | Explore.Agree -> "agree"
  | Explore.Disagree -> "disagree"
  | Explore.Vacuous -> "vacuous"

let arr_str mv a =
  "["
  ^ String.concat " "
      (Array.to_list (Array.map (function None -> "." | Some x -> mv x) a))
  ^ "]"

let script_str s =
  String.concat ","
    (List.map (fun e -> Printf.sprintf "%d>%d#%d" e.src e.dst e.seq) s)

(* Serialized prefix keys for the DPOR node table: explicit encoding, not
   a polymorphic hash of a long list (collisions there would silently
   merge distinct nodes). *)
let add_entry_key buf e =
  Buffer.add_string buf (string_of_int e.src);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int e.dst);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int e.seq);
  Buffer.add_char buf ';'

(* A branch point of the exploration tree, keyed by its serialized event
   prefix. [n_taken] accumulates the alternatives explored (or queued)
   from here, [n_sleep] is the sleep set the first visitor recorded. *)
type dpor_node = { n_sleep : entry list; mutable n_taken : entry list }

type dpor_item = { it_script : entry list; it_sleep : entry list }

type 'a raw_violation = {
  rv_name : string;
  rv_reason : string;
  rv_check :
    stopped:bool -> willed:'a option array -> 'a Types.outcome -> string option;
  rv_script : entry list;
  rv_starts : int list option;
  rv_stopped : bool;
  rv_outcome : 'a Types.outcome option;
}

let race_cap = 200_000

let check ?(backend = Dpor) ?(pool = Parallel.Pool.sequential)
    ?(max_states = 100_000) ?(max_steps = 10_000) ?(max_cuts = 4096)
    ?(max_minimize = 1000) ?(properties = []) ?(require_confluence = false)
    ?(fingerprints = true) sys =
  (* ---- fold state: mutated only in the calling domain, in queue order,
     so every verdict field is a pure function of the system ---- *)
  let fp_seen : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let stuck_seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let states = ref 0 and revisits = ref 0 in
  let runs = ref 0 and traces = ref 0 and truncated = ref 0 in
  let sleep_blocked = ref 0 and stop_cuts = ref 0 in
  let worst = ref 0 in
  let capped = ref false in
  let incomplete = ref false in (* race-cap / cut-cap / naive overflow *)
  let max_frontier = ref 0 in
  let min_replays = ref 0 in
  let cls_tbl = Hashtbl.create 64 in
  let cls_order = ref [] in
  let violation = ref None in
  let merge_fps arr =
    Array.iter
      (fun h ->
        if Hashtbl.mem fp_seen h then incr revisits
        else begin
          Hashtbl.replace fp_seen h ();
          incr states
        end)
      arr
  in
  let record_outcome ~stopped ~script ~starts (o : _ Types.outcome) willed =
    let key =
      (stopped, o.Types.termination, Array.copy o.Types.moves, Array.copy willed)
    in
    (match Hashtbl.find_opt cls_tbl key with
    | Some cnt -> incr cnt
    | None ->
        Hashtbl.replace cls_tbl key (ref 1);
        cls_order := (key, script) :: !cls_order);
    if !violation = None then
      List.iter
        (fun p ->
          if !violation = None then
            match p.p_check ~stopped ~willed o with
            | Some reason ->
                violation :=
                  Some
                    {
                      rv_name = p.p_name;
                      rv_reason = reason;
                      rv_check = p.p_check;
                      rv_script = script;
                      rv_starts = starts;
                      rv_stopped = stopped;
                      rv_outcome = Some o;
                    }
            | None -> ())
        properties
  in
  (* ---- relaxed stop-cut coverage: every reachable stopped
     configuration is an hb-downward-closed cut of some maximal history
     (per-destination delivery sequences determine process state), taken
     under some subset of started processes. Cuts are canonicalised by
     (start set, per-destination subsequences) so equivalent cuts from
     different representatives replay once. ---- *)
  let cut_seen : (int * entry list, unit) Hashtbl.t = Hashtbl.create 64 in
  let cut_visits = ref 0 in
  let cut_visit_budget = max_cuts * 64 in
  let do_cuts ~events ~sp (o : _ Types.outcome) =
    let l = Array.length events in
    let n = Array.length o.Types.moves in
    let hb, _spast = hb_of ~events ~sp in
    let full = (1 lsl n) - 1 in
    let masks =
      if n > 16 then [ full ] else List.init (full + 1) (fun i -> full - i)
    in
    if n > 16 then incomplete := true;
    let included = Array.make l false in
    let emit smask =
      incr cut_visits;
      if !cut_visits > cut_visit_budget then incomplete := true
      else begin
        let cut = ref [] in
        let csize = ref 0 in
        for k = l - 1 downto 0 do
          if included.(k) then begin
            cut := events.(k) :: !cut;
            incr csize
          end
        done;
        (* the full cut under all starts is the maximal history itself *)
        if not (smask = full && !csize = l) then begin
          let canon =
            List.stable_sort (fun a b -> compare a.dst b.dst) !cut
          in
          let key = (smask, canon) in
          if not (Hashtbl.mem cut_seen key) then begin
            Hashtbl.replace cut_seen key ();
            if !stop_cuts >= max_cuts then incomplete := true
            else begin
              incr stop_cuts;
              incr runs;
              let starts =
                List.filter
                  (fun p -> smask land (1 lsl p) <> 0)
                  (List.init n (fun i -> i))
              in
              let xr =
                exec ~sys ~guided:true ~stop_after:true ~starts:(Some starts)
                  ~script:canon ~sleep:[] ~max_steps ~fingerprints:false
              in
              match (xr.x_outcome, xr.x_willed) with
              | Some o', Some w when not xr.x_truncated ->
                  record_outcome ~stopped:true ~script:canon
                    ~starts:(Some starts) o' w
              | _ -> ()
            end
          end
        end
      end
    in
    List.iter
      (fun smask ->
        if !cut_visits <= cut_visit_budget then begin
          (* an event is admissible iff its destination started and its
             message exists: sent by a started process's start activation
             or by an admissible (hence included-able) delivery *)
          let adm = Array.make l false in
          for k = 0 to l - 1 do
            let e = events.(k) in
            let src_ok =
              if sp.(k) >= 0 then adm.(sp.(k))
              else e.src >= 0 && e.src < n && smask land (1 lsl e.src) <> 0
            in
            adm.(k) <-
              e.dst >= 0 && e.dst < n && smask land (1 lsl e.dst) <> 0 && src_ok
          done;
          (* exclude-first DFS over downward-closed subsets: small cuts
             surface first under the visit budget *)
          let rec go k =
            if !cut_visits > cut_visit_budget then ()
            else if k >= l then emit smask
            else if not adm.(k) then begin
              included.(k) <- false;
              go (k + 1)
            end
            else begin
              included.(k) <- false;
              go (k + 1);
              let closed =
                try
                  for j = 0 to k - 1 do
                    if bs_get hb.(k) j && not included.(j) then raise Exit
                  done;
                  true
                with Exit -> false
              in
              if closed && !cut_visits <= cut_visit_budget then begin
                included.(k) <- true;
                go (k + 1);
                included.(k) <- false
              end
            end
          in
          go 0
        end)
      masks
  in
  let fold_maximal xr =
    merge_fps xr.x_fps;
    (match xr.x_stuck with
    | Some h -> Hashtbl.replace stuck_seen h ()
    | None -> ());
    if xr.x_worst > !worst then worst := xr.x_worst;
    match xr.x_outcome with
    | None -> incr sleep_blocked
    | Some o ->
        if xr.x_truncated then incr truncated
        else begin
          incr traces;
          let willed =
            match xr.x_willed with Some w -> w | None -> o.Types.moves
          in
          record_outcome ~stopped:false ~script:(Array.to_list xr.x_events)
            ~starts:None o willed;
          if sys.sys_relaxed then do_cuts ~events:xr.x_events ~sp:xr.x_sp o
        end
  in
  (* ---- DPOR backend ---- *)
  let run_dpor () =
    let nodes : (string, dpor_node) Hashtbl.t = Hashtbl.create 256 in
    let frontier = ref [ { it_script = []; it_sleep = [] } ] in
    let queued = ref 1 in
    let process_backtracks it xr backtracks =
      let script_len = List.length it.it_script in
      let buf = Buffer.create 256 in
      let pos = ref 0 in
      let additions = ref [] in
      List.iter
        (fun (i, u) ->
          while !pos < i do
            add_entry_key buf xr.x_events.(!pos);
            incr pos
          done;
          let key = Buffer.contents buf in
          let nd =
            match Hashtbl.find_opt nodes key with
            | Some nd -> nd
            | None ->
                (* policy-region nodes carry the sleep set the run saw
                   there; mid-script interior nodes of other branches
                   start empty (an under-approximation: sound, possibly
                   redundant exploration, never a missed class) *)
                let sleep0 =
                  if i >= script_len then xr.x_sleep_at.(i - script_len)
                  else []
                in
                let nd = { n_sleep = sleep0; n_taken = [] } in
                Hashtbl.replace nodes key nd;
                nd
          in
          let cur = xr.x_events.(i) in
          if not (List.mem cur nd.n_taken) then nd.n_taken <- nd.n_taken @ [ cur ];
          if List.mem u nd.n_taken || List.mem u nd.n_sleep then ()
          else if !queued >= max_states then capped := true
          else begin
            (* the new branch sleeps on every sibling already explored
               from here that is independent of u (different dst): their
               subtrees cover those classes *)
            let sleep_new =
              List.filter (fun z -> z.dst <> u.dst) (nd.n_sleep @ nd.n_taken)
            in
            nd.n_taken <- nd.n_taken @ [ u ];
            let script = Array.to_list (Array.sub xr.x_events 0 i) @ [ u ] in
            let ckey =
              let b = Buffer.create 16 in
              Buffer.add_string b key;
              add_entry_key b u;
              Buffer.contents b
            in
            if not (Hashtbl.mem nodes ckey) then
              Hashtbl.replace nodes ckey { n_sleep = sleep_new; n_taken = [] };
            additions := { it_script = script; it_sleep = sleep_new } :: !additions;
            incr queued
          end)
        backtracks;
      List.rev !additions
    in
    while !frontier <> [] do
      let items = Array.of_list !frontier in
      frontier := [];
      if Array.length items > !max_frontier then max_frontier := Array.length items;
      let results =
        Parallel.Pool.map_array ~pool items (fun it ->
            let xr =
              exec ~sys ~guided:false ~stop_after:false ~starts:None
                ~script:it.it_script ~sleep:it.it_sleep ~max_steps ~fingerprints
            in
            let races, rcapped =
              (* a truncated prefix already clears [exhaustive]; its races
                 would only queue branches that re-truncate, and on long
                 prefixes the quadratic race scan dominates everything *)
              if xr.x_truncated then ([], false)
              else races_of ~events:xr.x_events ~sp:xr.x_sp ~cap:race_cap
            in
            let bts =
              List.sort_uniq compare
                (List.map (fun (i, _j, u) -> (i, xr.x_events.(u))) races)
            in
            (xr, bts, rcapped))
      in
      let next = ref [] in
      Array.iteri
        (fun idx (xr, bts, rcapped) ->
          incr runs;
          if rcapped then incomplete := true;
          fold_maximal xr;
          let adds = process_backtracks items.(idx) xr bts in
          next := List.rev_append adds !next)
        results;
      frontier := List.rev !next
    done
  in
  (* ---- naive backend: Sim.Explore's blind DFS as ground truth ---- *)
  let run_naive () =
    let has_wills =
      Array.exists
        (fun (p : _ Types.process) -> p.Types.will () <> None)
        (sys.sys_make ())
    in
    let r = Explore.explore ~max_histories:max_states ~max_steps ~make:sys.sys_make () in
    if r.Explore.capped then capped := true;
    if not r.Explore.exhaustive then incomplete := true;
    List.iter
      (fun (o : _ Types.outcome) ->
        incr runs;
        if o.Types.termination = Types.Cutoff then incr truncated
        else begin
          incr traces;
          let events, sp = events_of_trace o.Types.trace in
          let script = Array.to_list events in
          let o, willed =
            (* Explore does not surface its processes, so wills are
               re-read through one deterministic replay per history —
               only when the system has wills at all *)
            if has_wills then begin
              incr runs;
              replay sys ~script ~stopped:false ~max_steps ()
            end
            else (o, o.Types.moves)
          in
          record_outcome ~stopped:false ~script ~starts:None o willed;
          if sys.sys_relaxed then do_cuts ~events ~sp o
        end)
      r.Explore.outcomes
  in
  (match backend with Dpor -> run_dpor () | Naive -> run_naive ());
  (* ---- assemble the verdict (canonical order everywhere) ---- *)
  let classes =
    List.rev_map
      (fun (((stopped, term, moves, willed) as key), witness) ->
        {
          cls_moves = moves;
          cls_willed = willed;
          cls_termination = term;
          cls_stopped = stopped;
          cls_count = !(Hashtbl.find cls_tbl key);
          cls_witness = witness;
        })
      !cls_order
    |> List.sort (fun a b ->
           compare
             (a.cls_stopped, a.cls_termination, a.cls_moves, a.cls_willed)
             (b.cls_stopped, b.cls_termination, b.cls_moves, b.cls_willed))
  in
  let maximal = List.filter (fun c -> not c.cls_stopped) classes in
  let confluence =
    match maximal with
    | [] -> Explore.Vacuous
    | c :: rest ->
        if List.for_all (fun d -> d.cls_willed = c.cls_willed) rest then
          Explore.Agree
        else Explore.Disagree
  in
  (if require_confluence && confluence = Explore.Disagree && !violation = None
   then
     match maximal with
     | ref_c :: rest ->
         let div = List.find (fun d -> d.cls_willed <> ref_c.cls_willed) rest in
         let rw = Array.copy ref_c.cls_willed in
         violation :=
           Some
             {
               rv_name = "confluence";
               rv_reason = "maximal histories disagree on willed moves";
               rv_check =
                 (fun ~stopped:_ ~willed _o ->
                   if willed <> rw then
                     Some "willed moves differ from the reference history"
                   else None);
               rv_script = div.cls_witness;
               rv_starts = None;
               rv_stopped = false;
               rv_outcome = None;
             }
     | [] -> ());
  (* ---- counterexample minimization: greedy left-to-right single-
     delivery elision to a fixpoint, each candidate confirmed by a guided
     replay still violating the same property ---- *)
  let minimize (rv : _ raw_violation) =
    let try_replay script =
      incr min_replays;
      let xr =
        exec ~sys ~guided:true ~stop_after:rv.rv_stopped ~starts:rv.rv_starts
          ~script ~sleep:[] ~max_steps ~fingerprints:false
      in
      match (xr.x_outcome, xr.x_willed) with
      | Some o, Some w when not xr.x_truncated -> (
          match rv.rv_check ~stopped:rv.rv_stopped ~willed:w o with
          | Some reason -> Some (reason, o)
          | None -> None)
      | _ -> None
    in
    let original = List.length rv.rv_script in
    match try_replay rv.rv_script with
    | None ->
        (* the confirming replay did not reproduce the violation — report
           the raw witness rather than minimize against a moving target *)
        let o =
          match rv.rv_outcome with
          | Some o -> o
          | None ->
              fst
                (replay sys ~script:rv.rv_script ?starts:rv.rv_starts
                   ~stopped:rv.rv_stopped ~max_steps ())
        in
        {
          ce_property = rv.rv_name;
          ce_reason = rv.rv_reason;
          ce_script = rv.rv_script;
          ce_starts = rv.rv_starts;
          ce_stopped = rv.rv_stopped;
          ce_outcome = o;
          ce_original = original;
        }
    | Some (reason0, o0) ->
        let best = ref (rv.rv_script, reason0, o0) in
        let changed = ref true in
        while !changed && !min_replays < max_minimize do
          changed := false;
          let rec pass i =
            let script, _, _ = !best in
            if i < List.length script && !min_replays < max_minimize then begin
              let cand = List.filteri (fun j _ -> j <> i) script in
              match try_replay cand with
              | Some (r, o) ->
                  best := (cand, r, o);
                  changed := true;
                  pass i
              | None -> pass (i + 1)
            end
          in
          pass 0
        done;
        let script, reason, o = !best in
        {
          ce_property = rv.rv_name;
          ce_reason = reason;
          ce_script = script;
          ce_starts = rv.rv_starts;
          ce_stopped = rv.rv_stopped;
          ce_outcome = o;
          ce_original = original;
        }
  in
  let violation = Option.map minimize !violation in
  let stats =
    {
      backend_name = (match backend with Dpor -> "dpor" | Naive -> "naive");
      runs = !runs;
      traces = !traces;
      truncated = !truncated;
      sleep_blocked = !sleep_blocked;
      states = !states;
      revisits = !revisits;
      stop_cuts = !stop_cuts;
      minimize_replays = !min_replays;
      max_frontier = !max_frontier;
      capped = !capped;
    }
  in
  {
    pass = violation = None;
    confluence;
    classes;
    violation;
    deadlocks = Hashtbl.length stuck_seen;
    worst_wait = !worst;
    exhaustive = (not !capped) && !truncated = 0 && not !incomplete;
    stats;
  }

(* ------------------------------------------------------------------ *)

let repr mv (v : 'a verdict) =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "verdict %s confluence=%s exhaustive=%b deadlock-states=%d worst-wait=%d\n"
    (if v.pass then "PASS" else "FAIL")
    (agreement_str v.confluence) v.exhaustive v.deadlocks v.worst_wait;
  List.iter
    (fun c ->
      Printf.bprintf b "class %s term=%s count=%d moves=%s willed=%s\n"
        (if c.cls_stopped then "stopped" else "maximal")
        (term_str c.cls_termination) c.cls_count (arr_str mv c.cls_moves)
        (arr_str mv c.cls_willed))
    v.classes;
  (match v.violation with
  | Some ce ->
      Printf.bprintf b "violation %s: %s\n  script[%d<-%d]%s: %s\n" ce.ce_property
        ce.ce_reason
        (List.length ce.ce_script)
        ce.ce_original
        (match ce.ce_starts with
        | None -> ""
        | Some s -> " starts{" ^ String.concat "," (List.map string_of_int s) ^ "}")
        (script_str ce.ce_script)
  | None -> ());
  let s = v.stats in
  Printf.bprintf b
    "stats backend=%s runs=%d traces=%d truncated=%d sleep-blocked=%d states=%d \
     revisits=%d stop-cuts=%d minimize-replays=%d max-frontier=%d capped=%b\n"
    s.backend_name s.runs s.traces s.truncated s.sleep_blocked s.states s.revisits
    s.stop_cuts s.minimize_replays s.max_frontier s.capped;
  Buffer.contents b

let pp_counterexample ~mv fmt (ce : 'a counterexample) =
  Format.fprintf fmt "property %s violated: %s@." ce.ce_property ce.ce_reason;
  Format.fprintf fmt "minimized to %d deliveries (witness had %d)%s:@."
    (List.length ce.ce_script)
    ce.ce_original
    (match ce.ce_starts with
    | None -> ""
    | Some s ->
        Printf.sprintf " with only {%s} started"
          (String.concat "," (List.map string_of_int s)));
  let shown = 40 in
  List.iteri
    (fun i e -> if i < shown then Format.fprintf fmt "  deliver %a@." pp_entry e)
    ce.ce_script;
  let rest = List.length ce.ce_script - shown in
  if rest > 0 then Format.fprintf fmt "  ... (%d more deliveries)@." rest;
  if ce.ce_stopped then
    Format.fprintf fmt "  (then the environment stops delivery)@.";
  Format.fprintf fmt "final moves: %s@."
    (arr_str mv ce.ce_outcome.Types.moves);
  Format.fprintf fmt "replay trace:@.%s"
    (Trace_pp.chart ~limit:120 ce.ce_outcome)

let findings ~subject (v : 'a verdict) =
  (match v.violation with
  | Some ce ->
      [
        Finding.v ~analyzer ~subject
          (Printf.sprintf
             "property %s violated: %s (counterexample minimized to %d deliveries \
              from %d)"
             ce.ce_property ce.ce_reason
             (List.length ce.ce_script)
             ce.ce_original);
      ]
  | None -> [])
  @ (if v.stats.capped then
       [
         Finding.warning ~analyzer ~subject
           "state budget exhausted; the verdict is not exhaustive";
       ]
     else [])
  @ (if v.stats.truncated > 0 then
       [
         Finding.warning ~analyzer ~subject
           (Printf.sprintf "%d histories truncated by the step bound"
              v.stats.truncated);
       ]
     else [])
  @
  match v.confluence with
  | Explore.Vacuous ->
      [ Finding.warning ~analyzer ~subject "no outcomes explored (vacuous verdict)" ]
  | _ -> []
