open Sim.Types

let analyzer = "effects"

let err ~subject detail = Finding.v ~analyzer ~subject detail
let warn ~subject detail = Finding.warning ~analyzer ~subject detail

type pstate = { mutable halted : bool; mutable moved : bool }

type t = {
  n : int;
  states : pstate array;
  mutable rev_findings : Finding.t list;
}

let create ~n =
  { n; states = Array.init n (fun _ -> { halted = false; moved = false }); rev_findings = [] }

let record t f = t.rev_findings <- f :: t.rev_findings
let findings t = List.rev t.rev_findings

let observe t pid ~ctx effects =
  let subject = Printf.sprintf "pid %d (%s)" pid ctx in
  let st = t.states.(pid) in
  List.iter
    (fun eff ->
      match eff with
      | Send (dst, _) ->
          if st.halted then record t (err ~subject "Send after Halt in the same activation stream")
          else if dst < 0 || dst >= t.n then
            record t
              (err ~subject (Printf.sprintf "send to out-of-range pid %d (valid: 0..%d)" dst (t.n - 1)))
          else if t.states.(dst).halted then
            record t
              (warn ~subject (Printf.sprintf "send to already-halted pid %d (will never be processed)" dst))
      | Move _ ->
          if st.halted then record t (err ~subject "Move after Halt")
          else if st.moved then
            record t (err ~subject "duplicate Move (at most one action in the underlying game)")
          else st.moved <- true
      | Halt ->
          if st.halted then record t (warn ~subject "duplicate Halt")
          else st.halted <- true)
    effects

let wrap t ~pid (p : ('m, 'a) process) =
  {
    start =
      (fun () ->
        let effs = p.start () in
        observe t pid ~ctx:"start" effs;
        effs);
    receive =
      (fun ~src m ->
        if t.states.(pid).halted then
          record t (err ~subject:(Printf.sprintf "pid %d" pid) "activation after Halt");
        let effs = p.receive ~src m in
        observe t pid ~ctx:(Printf.sprintf "receive from %d" src) effs;
        effs);
    will = p.will;
  }

let wrap_all t procs = Array.mapi (fun pid p -> wrap t ~pid p) procs

let check_wills t procs =
  Array.iteri
    (fun pid (p : ('m, 'a) process) ->
      if pid < t.n && t.states.(pid).moved then
        match p.will () with
        | Some _ ->
            record t
              (warn
                 ~subject:(Printf.sprintf "pid %d" pid)
                 "will() still returns an action after the player moved (the executor \
                  ignores it; return None once moved)")
        | None -> ())
    procs

let check_trace ?n (o : 'a outcome) =
  let trace = Sim.Runner.recorded_trace ~who:"Analysis.check_run" o in
  let n = match n with Some n -> n | None -> Array.length o.moves in
  let fs = ref [] in
  let add f = fs := f :: !fs in
  let halted = Array.make n false in
  let moved = Array.make n false in
  let started = Array.make n false in
  let next_seq : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let in_flight : (int * int * int, [ `Sent | `Delivered | `Dropped ]) Hashtbl.t =
    Hashtbl.create 32
  in
  let pid_ok p = p >= 0 && p < n in
  let chan ~src ~dst ~seq = Printf.sprintf "(%d->%d #%d)" src dst seq in
  List.iter
    (fun ev ->
      match ev with
      | Sent { src; dst; seq } ->
          let subject = chan ~src ~dst ~seq in
          if not (pid_ok src) then add (err ~subject "sender pid out of range")
          else begin
            if halted.(src) then add (err ~subject "message sent after the sender halted");
            let expected = 1 + (try Hashtbl.find next_seq (src, dst) with Not_found -> 0) in
            if seq <> expected then
              add
                (err ~subject
                   (Printf.sprintf "non-monotone seq: expected %d on this channel" expected));
            Hashtbl.replace next_seq (src, dst) (max seq expected)
          end;
          if pid_ok dst && halted.(dst) then
            add (warn ~subject "sent to an already-halted player");
          Hashtbl.replace in_flight (src, dst, seq) `Sent
      | Delivered { src; dst; seq } -> (
          let subject = chan ~src ~dst ~seq in
          match Hashtbl.find_opt in_flight (src, dst, seq) with
          | Some `Sent -> Hashtbl.replace in_flight (src, dst, seq) `Delivered
          | Some `Delivered -> add (err ~subject "delivered twice")
          | Some `Dropped -> add (err ~subject "delivered after being dropped")
          | None -> add (err ~subject "delivered but never sent"))
      | Dropped { src; dst; seq } -> (
          let subject = chan ~src ~dst ~seq in
          match Hashtbl.find_opt in_flight (src, dst, seq) with
          | Some `Sent -> Hashtbl.replace in_flight (src, dst, seq) `Dropped
          | Some `Delivered -> add (err ~subject "dropped after delivery")
          | Some `Dropped -> add (err ~subject "dropped twice")
          | None -> add (err ~subject "dropped but never sent"))
      | Moved { who; _ } ->
          let subject = Printf.sprintf "pid %d" who in
          if not (pid_ok who) then add (err ~subject "mover pid out of range")
          else begin
            if halted.(who) then add (err ~subject "moved after halting");
            if moved.(who) then add (err ~subject "moved twice") else moved.(who) <- true
          end
      | Halted p ->
          let subject = Printf.sprintf "pid %d" p in
          if not (pid_ok p) then add (err ~subject "halted pid out of range")
          else if halted.(p) then add (err ~subject "halted twice")
          else halted.(p) <- true
      | Started p ->
          let subject = Printf.sprintf "pid %d" p in
          if not (pid_ok p) then add (err ~subject "started pid out of range")
          else if started.(p) then add (err ~subject "started twice")
          else started.(p) <- true
      | Fault { kind = Duplicate; src; dst; seq } ->
          (* an injected duplicate is the environment's copy of a real
             message: it plays the copy's [Sent] role (consumes the
             channel's next seq, may later be delivered or dropped) but
             the sender did not act, so the halted-sender and
             monotonicity checks do not apply *)
          let expected = 1 + (try Hashtbl.find next_seq (src, dst) with Not_found -> 0) in
          Hashtbl.replace next_seq (src, dst) (max seq expected);
          Hashtbl.replace in_flight (src, dst, seq) `Sent
      | Fault _ ->
          (* Corrupt/Delay/Crash_restart markers are informational: the
             affected message's own Sent/Delivered events carry the
             channel bookkeeping *)
          ())
    trace;
  List.rev !fs
