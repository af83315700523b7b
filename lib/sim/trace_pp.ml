open Types

let pp_event fmt = function
  | Sent { src; dst; seq } -> Format.fprintf fmt "%d --%d--> %d" src seq dst
  | Delivered { src; dst; seq } -> Format.fprintf fmt "%d ==%d==> %d" src seq dst
  | Dropped { src; dst; seq } -> Format.fprintf fmt "%d xx%dxx| %d  DROPPED" src seq dst
  | Moved { who; _ } -> Format.fprintf fmt "%d MOVES" who
  | Halted p -> Format.fprintf fmt "%d HALTS" p
  | Started p -> Format.fprintf fmt "%d starts" p
  | Fault { kind = Duplicate; src; dst; seq } ->
      Format.fprintf fmt "%d ++%d++> %d  FAULT dup-injected" src seq dst
  | Fault { kind = Corrupt; src; dst; seq } ->
      Format.fprintf fmt "%d ~~%d~~> %d  FAULT corrupted in transit" src seq dst
  | Fault { kind = Delay; src; dst; seq } ->
      Format.fprintf fmt "%d ..%d..> %d  FAULT delay-pinned" src seq dst
  | Fault { kind = Crash_restart; dst; seq; _ } ->
      Format.fprintf fmt "%d !!CRASH!!  FAULT silent for %d decisions" dst seq

let chart ?(limit = 200) (o : 'a outcome) =
  let trace = Runner.recorded_trace ~who:"Trace_pp.chart" o in
  let buf = Buffer.create 1024 in
  let total = List.length trace in
  List.iteri
    (fun i ev ->
      if i < limit then
        Buffer.add_string buf (Format.asprintf "%4d  %a\n" i pp_event ev))
    trace;
  if total > limit then
    Buffer.add_string buf (Printf.sprintf "      ... %d more events\n" (total - limit));
  Buffer.add_string buf
    (Printf.sprintf "(%d sent, %d delivered, %d steps)\n" o.messages_sent o.messages_delivered
       o.steps);
  Buffer.contents buf

type stats = {
  sends_per_pair : ((int * int) * int) list;
  moves : (int * int) list;
  halted_players : int list;
}

let stats (o : 'a outcome) =
  let trace = Runner.recorded_trace ~who:"Trace_pp.stats" o in
  let pairs = Hashtbl.create 16 in
  let moves = ref [] in
  let move_index = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Sent { src; dst; _ } ->
          let key = (src, dst) in
          Hashtbl.replace pairs key (1 + try Hashtbl.find pairs key with Not_found -> 0)
      | Moved { who; _ } ->
          moves := (who, !move_index) :: !moves;
          incr move_index
      | Delivered _ | Dropped _ | Halted _ | Started _ | Fault _ -> ())
    trace;
  {
    sends_per_pair =
      List.sort
        (fun (_, a) (_, b) -> compare b a)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) pairs []);
    moves = List.rev !moves;
    halted_players =
      Array.to_list o.halted
      |> List.mapi (fun i h -> (i, h))
      |> List.filter_map (fun (i, h) -> if h then Some i else None);
  }

let pp_stats fmt s =
  Format.fprintf fmt "@[<v>busiest links:@,";
  List.iteri
    (fun i ((src, dst), c) ->
      if i < 8 then Format.fprintf fmt "  %d -> %d : %d messages@," src dst c)
    s.sends_per_pair;
  Format.fprintf fmt "moves (in order): %s@,"
    (String.concat " " (List.map (fun (p, _) -> string_of_int p) s.moves));
  Format.fprintf fmt "halted: %s@]"
    (String.concat " " (List.map string_of_int s.halted_players))
