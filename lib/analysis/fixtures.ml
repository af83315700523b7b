open Sim.Types

let no_will () = None

let ping_pong () =
  let p0 =
    {
      start = (fun () -> [ Send (1, 1) ]);
      receive = (fun ~src:_ _ -> [ Move 1; Halt ]);
      will = no_will;
    }
  in
  let p1 =
    {
      start = (fun () -> []);
      receive = (fun ~src:_ v -> [ Send (0, v + 1); Move 0; Halt ]);
      will = no_will;
    }
  in
  [| p0; p1 |]

let threshold_sum () =
  let sender me v =
    { start = (fun () -> [ Send (2, v + me) ]); receive = (fun ~src:_ _ -> []); will = no_will }
  in
  let acc = ref 0 in
  let got = ref 0 in
  let collector =
    {
      start = (fun () -> []);
      receive =
        (fun ~src:_ v ->
          acc := !acc + v;
          incr got;
          if !got = 2 then [ Move !acc; Halt ] else []);
      will = no_will;
    }
  in
  [| sender 0 10; sender 1 20; collector |]

let order_bug () =
  let shout me v =
    { start = (fun () -> [ Send (2, v + me) ]); receive = (fun ~src:_ _ -> []); will = no_will }
  in
  let judge =
    {
      start = (fun () -> []);
      receive = (fun ~src:_ v -> [ Move v; Halt ]) (* first arrival wins: the bug *);
      will = no_will;
    }
  in
  [| shout 0 10; shout 1 20; judge |]

let byzantine_echo () =
  let honest peer =
    {
      start = (fun () -> [ Send (peer, 7) ]);
      receive = (fun ~src v -> if src = peer then [ Move v; Halt ] else []);
      will = no_will;
    }
  in
  let byzantine =
    {
      start = (fun () -> [ Send (0, 100); Send (1, 200) ]);
      receive = (fun ~src:_ _ -> []);
      will = no_will;
    }
  in
  [| honest 1; honest 0; byzantine |]

(* ------------------------------------------------------------------ *)
(* Model-checker fixtures (see Mc). *)

let quorum_vote ~n ~zeros () =
  let byz = n - 1 in
  let honest me =
    let ones = ref 1 (* own vote *) in
    let zeros_got = ref 0 in
    let got = ref 0 in
    {
      start =
        (fun () ->
          List.filter_map
            (fun j -> if j = me then None else Some (Send (j, 1)))
            (List.init n (fun j -> j)));
      receive =
        (fun ~src:_ v ->
          incr got;
          if v = 1 then incr ones else incr zeros_got;
          if !got = n - 1 then
            [ Move (if !ones > !zeros_got then 1 else 0); Halt ]
          else []);
      will = no_will;
    }
  in
  let byzantine =
    {
      start =
        (fun () ->
          List.concat_map
            (fun j -> List.init zeros (fun _ -> Send (j, 0)))
            (List.init (n - 1) (fun j -> j)));
      receive = (fun ~src:_ _ -> []);
      will = no_will;
    }
  in
  Array.init n (fun i -> if i = byz then byzantine else honest i)

let quorum_validity : int Mc.property =
  Mc.property "validity" (fun ~stopped:_ ~willed (o : int outcome) ->
      let n = Array.length o.moves in
      let bad = ref None in
      Array.iteri
        (fun pid w -> if pid < n - 1 && w = Some 0 then bad := Some pid)
        willed;
      match !bad with
      | Some pid ->
          Some
            (Printf.sprintf "honest player %d decided 0 though every honest vote was 1"
               pid)
      | None -> None)

let pairs ~m () =
  let pair p =
    let a = 2 * p and b = (2 * p) + 1 in
    let pa =
      {
        start = (fun () -> [ Send (b, (10 * p) + 1) ]);
        receive = (fun ~src:_ v -> [ Move v; Halt ]);
        will = no_will;
      }
    in
    let pb =
      {
        start = (fun () -> []);
        receive = (fun ~src:_ v -> [ Send (a, v + 1); Move v; Halt ]);
        will = no_will;
      }
    in
    [ pa; pb ]
  in
  Array.of_list (List.concat_map pair (List.init m (fun p -> p)))
