type pattern_event =
  | P_sent of { src : int; dst : int; seq : int }
  | P_delivered of { src : int; dst : int; seq : int }
  | P_dropped of { src : int; dst : int; seq : int }
  | P_moved of int
  | P_halted of int
  | P_started of int
  | P_fault of { kind : Faults.kind; src : int; dst : int; seq : int }

type t = {
  name : string;
  relaxed : bool;
  history : bool;
  reset : unit -> unit;
  choose : step:int -> history:pattern_event list -> pending:Pending_set.t -> Types.decision;
}

let deliver (v : Types.pending_view) = Types.Deliver v.Types.id

let fifo () =
  {
    name = "fifo";
    relaxed = false;
    history = false;
    reset = ignore;
    choose = (fun ~step:_ ~history:_ ~pending -> deliver (Pending_set.oldest pending));
  }

let lifo () =
  {
    name = "lifo";
    relaxed = false;
    history = false;
    reset = ignore;
    choose = (fun ~step:_ ~history:_ ~pending -> deliver (Pending_set.newest pending));
  }

let random rng =
  {
    name = "random";
    relaxed = false;
    history = false;
    reset = ignore;
    choose =
      (fun ~step:_ ~history:_ ~pending ->
        deliver (Pending_set.nth pending (Random.State.int rng (Pending_set.count pending))));
  }

let random_seeded seed = random (Random.State.make [| 0x5eed; seed |])

let involves pid (v : Types.pending_view) = v.Types.src = pid || v.Types.dst = pid

let avoid ~name pred rng =
  {
    name;
    relaxed = false;
    history = false;
    reset = ignore;
    choose =
      (fun ~step:_ ~history:_ ~pending ->
        match Pending_set.choose_where pending (fun v -> not (pred v)) ~rng with
        | Some v -> deliver v
        | None -> deliver (Pending_set.oldest pending));
  }

let delay_player ~victim rng =
  avoid ~name:(Printf.sprintf "delay[%d]" victim) (involves victim) rng

let delay_pair ~a ~b rng =
  let between (v : Types.pending_view) =
    (v.Types.src = a && v.Types.dst = b) || (v.Types.src = b && v.Types.dst = a)
  in
  avoid ~name:(Printf.sprintf "delay[%d<->%d]" a b) between rng

let prioritise ~players rng =
  {
    name =
      Printf.sprintf "prioritise[%s]" (String.concat "," (List.map string_of_int players));
    relaxed = false;
    history = false;
    reset = ignore;
    choose =
      (fun ~step:_ ~history:_ ~pending ->
        let favoured (v : Types.pending_view) = List.mem v.Types.src players in
        match Pending_set.choose_where pending favoured ~rng with
        | Some v -> deliver v
        | None -> (
            match Pending_set.choose_where pending (fun _ -> true) ~rng with
            | Some v -> deliver v
            | None -> deliver (Pending_set.oldest pending)));
  }

let round_robin () =
  let next_dst = ref 0 in
  {
    name = "round-robin";
    relaxed = false;
    history = false;
    reset = (fun () -> next_dst := 0);
    choose =
      (fun ~step:_ ~history:_ ~pending ->
        (* smallest destination >= !next_dst with a pending message,
           wrapping around; deliver its oldest message *)
        let best = ref None in
        let wrap = ref None in
        Pending_set.iter pending (fun v ->
            let d = v.Types.dst in
            (match !best with
            | Some (bd, _) when bd <= d -> ()
            | _ -> if d >= !next_dst then best := Some (d, v));
            match !wrap with
            | Some (wd, _) when wd <= d -> ()
            | _ -> wrap := Some (d, v));
        let d, v =
          match (!best, !wrap) with
          | Some bv, _ -> bv
          | None, Some wv -> wv
          | None, None -> invalid_arg "round_robin: empty"
        in
        (* oldest for that destination *)
        let chosen = ref v in
        (try
           Pending_set.iter pending (fun v' ->
               if v'.Types.dst = d then begin
                 chosen := v';
                 raise Exit
               end)
         with Exit -> ());
        next_dst := d + 1;
        deliver !chosen);
  }

let relaxed_stop_after k =
  let delivered = ref 0 in
  {
    name = Printf.sprintf "relaxed-stop-after-%d" k;
    relaxed = true;
    history = false;
    reset = (fun () -> delivered := 0);
    choose =
      (fun ~step:_ ~history:_ ~pending ->
        if !delivered >= k then Types.Stop_delivery
        else begin
          incr delivered;
          deliver (Pending_set.oldest pending)
        end);
  }

let relaxed_random ~stop_prob rng =
  {
    name = Printf.sprintf "relaxed-random-%.3f" stop_prob;
    relaxed = true;
    history = false;
    reset = ignore;
    choose =
      (fun ~step:_ ~history:_ ~pending ->
        if Random.State.float rng 1.0 < stop_prob then Types.Stop_delivery
        else deliver (Pending_set.oldest pending));
  }

(* Adaptive adversary: watches the pattern history and always postpones
   traffic of the currently most-active sender ("slow down the leader").
   The history list grows by consing, so the previously seen list is a
   physical suffix of the current one: only the new prefix is scanned,
   keeping the scheduler O(new events) per decision. *)
let adaptive_laggard rng =
  let counts : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let seen : pattern_event list ref = ref [] in
  let bump src =
    Hashtbl.replace counts src (1 + try Hashtbl.find counts src with Not_found -> 0)
  in
  let rec absorb h =
    if h != !seen then
      match h with
      | [] -> ()
      | ev :: rest ->
          (match ev with P_sent { src; _ } -> bump src | _ -> ());
          absorb rest
  in
  {
    name = "adaptive-laggard";
    relaxed = false;
    history = true;
    reset =
      (fun () ->
        Hashtbl.reset counts;
        seen := []);
    choose =
      (fun ~step:_ ~history ~pending ->
        absorb history;
        seen := history;
        let leader =
          Hashtbl.fold
            (fun src c acc ->
              match acc with
              | Some (_, best) when best >= c -> acc
              | _ -> Some (src, c))
            counts None
        in
        match leader with
        | None -> deliver (Pending_set.oldest pending)
        | Some (victim, _) -> (
            match Pending_set.choose_where pending (fun v -> v.Types.src <> victim) ~rng with
            | Some v -> deliver v
            | None -> deliver (Pending_set.oldest pending)));
  }

let custom ?(reset = ignore) ?(history = true) ~name ~relaxed choose =
  { name; relaxed; history; reset; choose }

let standard_library rng =
  let split () = Random.State.make [| Random.State.bits rng |] in
  [
    fifo ();
    lifo ();
    random (split ());
    round_robin ();
    delay_player ~victim:0 (split ());
    delay_player ~victim:1 (split ());
    delay_pair ~a:0 ~b:1 (split ());
    adaptive_laggard (split ());
  ]
