type 'a result = {
  outcomes : 'a Types.outcome list;
  histories : int;
  truncated : int;
  capped : bool;
  exhaustive : bool;
}

(* One run that follows [prefix] (indices into the pending set, oldest =
   0), then always delivers the oldest message, recording the pending-set
   size at each post-prefix decision. From those sizes the caller derives
   every sibling branch, so each complete history is visited exactly once
   (keyed by its canonical index sequence). *)
let scripted_run ~max_steps ~make prefix =
  let remaining = ref prefix in
  let tail_counts = ref [] in
  let sched =
    Scheduler.custom ~name:"scripted" ~relaxed:false ~history:false
      (fun ~step:_ ~history:_ ~pending ->
        match !remaining with
        | i :: rest ->
            remaining := rest;
            Types.Deliver (Pending_set.nth pending i).Types.id
        | [] ->
            tail_counts := Pending_set.count pending :: !tail_counts;
            Types.Deliver (Pending_set.oldest pending).Types.id)
  in
  let procs = make () in
  let o =
    Runner.run
      (Runner.config ~record:true ~max_steps ~starvation_bound:max_int ~scheduler:sched procs)
  in
  (o, List.rev !tail_counts)

let explore ?(max_histories = 10_000) ?(max_steps = 200) ~make () =
  let outcomes = ref [] in
  let histories = ref 0 in
  let truncated = ref 0 in
  let stack = ref [ [] ] in
  let capped = ref false in
  while !stack <> [] && not !capped do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        if !histories >= max_histories then capped := true
        else begin
          let o, tail_counts = scripted_run ~max_steps ~make prefix in
          incr histories;
          (* A history that hit [max_steps] is NOT a complete history: its
             outcome is a Cutoff prefix of one. Count it separately so a
             "clean" exploration cannot silently hide livelock truncation
             behind complete-looking outcomes. *)
          if o.Types.termination = Types.Cutoff then incr truncated;
          outcomes := o :: !outcomes;
          (* enqueue every sibling of the all-oldest tail *)
          let zeros m = List.init m (fun _ -> 0) in
          List.iteri
            (fun m c ->
              for i = c - 1 downto 1 do
                stack := (prefix @ zeros m @ [ i ]) :: !stack
              done)
            tail_counts
        end
  done;
  {
    outcomes = List.rev !outcomes;
    histories = !histories;
    truncated = !truncated;
    capped = !capped;
    exhaustive = (not !capped) && !truncated = 0;
  }

type agreement = Agree | Disagree | Vacuous

let agreement project r =
  match r.outcomes with
  | [] -> Vacuous
  | first :: rest ->
      let p0 = project first in
      if List.for_all (fun o -> project o = p0) rest then Agree else Disagree

let all_outcomes_agree project r =
  match agreement project r with
  | Agree -> true
  | Disagree -> false
  | Vacuous ->
      invalid_arg
        "Explore.all_outcomes_agree: no outcomes explored (vacuous agreement — \
         use Explore.agreement for a three-valued verdict)"
