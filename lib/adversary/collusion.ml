let signal_effects ~value ~me dummy =
  List.init value (fun _ -> Sim.Types.Send (me, dummy))

(* Count the newest maximal run of self-sends by [from] in the (reverse-
   chronological) history. *)
let read_signal ~from history =
  let is_self_send = function
    | Sim.Scheduler.P_sent { src; dst; _ } -> src = from && dst = from
    | _ -> false
  in
  (* skip anything newer than the burst, then count it *)
  let rec skip = function
    | [] -> []
    | ev :: rest -> if is_self_send ev then ev :: rest else skip rest
  in
  let rec count acc = function
    | ev :: rest when is_self_send ev -> count (acc + 1) rest
    | _ -> acc
  in
  count 0 (skip history)

let signalling_scheduler ~on_signal ~inner =
  let last = ref 0 in
  {
    Sim.Scheduler.name = "signalling+" ^ inner.Sim.Scheduler.name;
    relaxed = inner.Sim.Scheduler.relaxed;
    history = true;
    reset =
      (fun () ->
        last := 0;
        inner.Sim.Scheduler.reset ());
    choose =
      (fun ~step ~history ~pending ->
        (* Detect bursts from any player: count all self-sends so far and
           report increments. *)
        let total =
          List.fold_left
            (fun acc ev ->
              match ev with
              | Sim.Scheduler.P_sent { src; dst; _ } when src = dst -> acc + 1
              | _ -> acc)
            0 history
        in
        if total > !last then begin
          on_signal (total - !last);
          last := total
        end;
        inner.Sim.Scheduler.choose ~step ~history ~pending);
  }
