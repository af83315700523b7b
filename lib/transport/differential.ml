let kind_tag = function
  | Faults.Duplicate -> "D"
  | Faults.Corrupt -> "C"
  | Faults.Delay -> "L"
  | Faults.Crash_restart -> "R"

let event_repr show (e : 'a Sim.Types.trace_event) =
  match e with
  | Sim.Types.Sent { src; dst; seq } -> Printf.sprintf "s%d>%d#%d" src dst seq
  | Delivered { src; dst; seq } -> Printf.sprintf "d%d>%d#%d" src dst seq
  | Dropped { src; dst; seq } -> Printf.sprintf "x%d>%d#%d" src dst seq
  | Moved { who; action } -> Printf.sprintf "m%d=%s" who (show action)
  | Halted p -> Printf.sprintf "h%d" p
  | Started p -> Printf.sprintf "b%d" p
  | Fault { kind; src; dst; seq } ->
      Printf.sprintf "f%s%d>%d#%d" (kind_tag kind) src dst seq

let term_repr (t : Sim.Types.termination) =
  match t with
  | Sim.Types.All_halted -> "all-halted"
  | Quiescent -> "quiescent"
  | Deadlocked -> "deadlocked"
  | Cutoff -> "cutoff"
  | Timed_out -> "timed-out"

let moves_repr show moves =
  String.concat ","
    (Array.to_list (Array.map (function None -> "·" | Some a -> show a) moves))

let outcome_repr ~show (o : 'a Sim.Types.outcome) =
  let b = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string b (event_repr show e);
      Buffer.add_char b ';')
    (Sim.Runner.recorded_trace ~who:"Differential.outcome_repr" o);
  Printf.sprintf "%s moves=[%s] sent=%d delivered=%d steps=%d halted=%s %s trace=%s"
    (term_repr o.termination) (moves_repr show o.moves) o.messages_sent
    o.messages_delivered o.steps
    (String.concat ""
       (List.map (fun h -> if h then "1" else "0") (Array.to_list o.halted)))
    (Obs.Metrics.det_repr o.metrics)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let profile ~show (o : 'a Sim.Types.outcome) =
  Printf.sprintf "%s [%s]"
    (term_repr o.Sim.Types.termination)
    (moves_repr show o.Sim.Types.moves)
