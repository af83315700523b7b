(* Tests for asynchronous binary agreement, run inside the simulator. *)

open Sim.Types
module Aba = Agreement.Aba
module Coin = Agreement.Coin

let to_effects sends = List.map (fun (dst, m) -> Send (dst, m)) sends

let aba_honest ~n ~f ~me ~coin ~proposal =
  let session = Aba.create ~n ~f ~me ~coin in
  let emit (r : Aba.reaction) =
    to_effects r.Aba.sends
    @ (match r.Aba.decided with Some v -> [ Move (if v then 1 else 0) ] | None -> [])
  in
  {
    start = (fun () -> emit (Aba.propose session proposal));
    receive = (fun ~src m -> emit (Aba.handle session ~src m));
    will = (fun () -> None);
  }

let silent = { start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = (fun () -> None) }

let run ?(sched = Sim.Scheduler.fifo ()) ?(max_steps = 500_000) procs =
  Sim.Runner.run (Sim.Runner.config ~max_steps ~scheduler:sched procs)

let common_coin seed ~round = Coin.common ~seed ~instance:0 ~round

let check_all_decide name o expected =
  Array.iteri
    (fun i mv ->
      match expected with
      | Some v -> Alcotest.(check (option int)) (Printf.sprintf "%s: player %d" name i) (Some v) mv
      | None -> (
          match mv with
          | Some _ -> ()
          | None -> Alcotest.failf "%s: player %d did not decide" name i))
    o.moves

let test_unanimous_validity () =
  let n = 4 and f = 1 in
  List.iter
    (fun v ->
      let procs =
        Array.init n (fun me -> aba_honest ~n ~f ~me ~coin:(common_coin 3) ~proposal:(v = 1))
      in
      let o = run procs in
      check_all_decide "unanimous" o (Some v))
    [ 0; 1 ]

let test_unanimous_all_schedulers () =
  let n = 4 and f = 1 in
  let rng = Random.State.make [| 19 |] in
  List.iter
    (fun sched ->
      let procs =
        Array.init n (fun me -> aba_honest ~n ~f ~me ~coin:(common_coin 5) ~proposal:true)
      in
      let o = run ~sched procs in
      check_all_decide ("unanimous/" ^ sched.Sim.Scheduler.name) o (Some 1))
    (Sim.Scheduler.standard_library rng)

let test_mixed_agreement () =
  let n = 4 and f = 1 in
  List.iter
    (fun seed ->
      let procs =
        Array.init n (fun me ->
            aba_honest ~n ~f ~me ~coin:(common_coin seed) ~proposal:(me mod 2 = 0))
      in
      let o = run ~sched:(Sim.Scheduler.random_seeded seed) procs in
      let decisions = List.filter_map (fun x -> x) (Array.to_list o.moves) in
      Alcotest.(check int) "everyone decides" n (List.length decisions);
      match decisions with
      | v :: rest -> List.iter (fun w -> Alcotest.(check int) "agreement" v w) rest
      | [] -> Alcotest.fail "no decisions")
    (List.init 25 (fun i -> i))

let test_crash_tolerance () =
  let n = 4 and f = 1 in
  let procs =
    Array.init n (fun me -> aba_honest ~n ~f ~me ~coin:(common_coin 11) ~proposal:true)
  in
  procs.(2) <- silent;
  let o = run procs in
  List.iter
    (fun i ->
      Alcotest.(check (option int)) (Printf.sprintf "player %d decides" i) (Some 1) o.moves.(i))
    [ 0; 1; 3 ]

let test_local_coin_terminates () =
  (* Ben-Or style local coins: agreement still holds; termination is
     probabilistic, so allow generous step budget and check across seeds. *)
  let n = 4 and f = 1 in
  List.iter
    (fun seed ->
      let procs =
        Array.init n (fun me ->
            let rng = Random.State.make [| seed; me; 101 |] in
            aba_honest ~n ~f ~me ~coin:(Coin.local rng) ~proposal:(me < 2))
      in
      let o = run ~sched:(Sim.Scheduler.random_seeded seed) procs in
      let decisions = List.filter_map (fun x -> x) (Array.to_list o.moves) in
      Alcotest.(check int) "everyone decides (local coin)" n (List.length decisions);
      match decisions with
      | v :: rest -> List.iter (fun w -> Alcotest.(check int) "agreement" v w) rest
      | [] -> ())
    [ 1; 2; 3 ]

let test_validation () =
  Alcotest.check_raises "n <= 3f" (Invalid_argument "Aba.create: need n > 3f") (fun () ->
      ignore (Aba.create ~n:3 ~f:1 ~me:0 ~coin:(common_coin 1)))

(* --- ABA edge cases: one session driven message by message (n = 4,
   f = 1, me = 0, coin always true) --- *)

let bval r v = Aba.Bval { round = r; value = v }
let aux r v = Aba.Aux { round = r; value = v }
let fresh_aba () = Aba.create ~n:4 ~f:1 ~me:0 ~coin:(Coin.constant true)
let nsends (r : Aba.reaction) = List.length r.Aba.sends

(* Propose true and let players 1 and 2 echo BVAL(1, true): bin_values
   = {true} and our own AUX(1, true) is out, so two more AUX(1, true)
   complete round 1 and decide true. *)
let aba_awaiting_aux () =
  let s = fresh_aba () in
  ignore (Aba.propose s true);
  ignore (Aba.handle s ~src:1 (bval 1 true));
  Alcotest.(check int) "BVAL quorum sends AUX" 3 (nsends (Aba.handle s ~src:2 (bval 1 true)));
  s

let test_aba_duplicates_count_once () =
  let s = fresh_aba () in
  Alcotest.(check int) "one BVAL: no echo" 0 (nsends (Aba.handle s ~src:1 (bval 1 true)));
  Alcotest.(check int) "duplicate BVAL: no echo" 0 (nsends (Aba.handle s ~src:1 (bval 1 true)));
  Alcotest.(check int) "f+1 senders: echo" 3 (nsends (Aba.handle s ~src:2 (bval 1 true)));
  let s = aba_awaiting_aux () in
  ignore (Aba.handle s ~src:1 (aux 1 true));
  ignore (Aba.handle s ~src:1 (aux 1 true));
  Alcotest.(check (option bool)) "duplicate AUX: round 1 open" None (Aba.decision s);
  Alcotest.(check (option bool)) "n-f AUX senders: decide" (Some true)
    (Aba.handle s ~src:2 (aux 1 true)).Aba.decided;
  let s = fresh_aba () in
  ignore (Aba.handle s ~src:1 (Aba.Decide true));
  ignore (Aba.handle s ~src:1 (Aba.Decide true));
  Alcotest.(check (option bool)) "duplicate DECIDE: undecided" None (Aba.decision s);
  Alcotest.(check (option bool)) "f+1 DECIDE senders: decide" (Some true)
    (Aba.handle s ~src:2 (Aba.Decide true)).Aba.decided

let test_aba_self_aux_replaces () =
  (* a self-addressed AUX(1, false) arrives first; our own AUX(1, true)
     replaces it, so it counts towards the true quorum *)
  let s = fresh_aba () in
  ignore (Aba.handle s ~src:0 (aux 1 false));
  ignore (Aba.propose s true);
  ignore (Aba.handle s ~src:1 (bval 1 true));
  ignore (Aba.handle s ~src:2 (bval 1 true));
  ignore (Aba.handle s ~src:1 (aux 1 true));
  Alcotest.(check (option bool)) "own AUX(true) + 2 others decide" (Some true)
    (Aba.handle s ~src:2 (aux 1 true)).Aba.decided

let test_aba_ignores_out_of_range_src () =
  let n = 4 in
  let s = fresh_aba () in
  List.iter
    (fun src ->
      Alcotest.(check int) (Printf.sprintf "BVAL from %d" src) 0
        (nsends (Aba.handle s ~src (bval 1 true)));
      Alcotest.(check int) (Printf.sprintf "DECIDE from %d" src) 0
        (nsends (Aba.handle s ~src (Aba.Decide true))))
    [ -1; n ];
  Alcotest.(check (option bool)) "no decision" None (Aba.decision s);
  let s = aba_awaiting_aux () in
  ignore (Aba.handle s ~src:(-1) (aux 1 true));
  ignore (Aba.handle s ~src:n (aux 1 true));
  Alcotest.(check (option bool)) "AUX from -1 and n: round 1 open" None (Aba.decision s);
  Alcotest.(check int) "still round 1" 1 (Aba.round s)

let test_aba_far_round_is_sparse () =
  (* a Byzantine BVAL may name any round: it costs one round record *)
  let s = fresh_aba () in
  ignore (Aba.handle s ~src:1 (bval 1 true));
  let before = Obj.reachable_words (Obj.repr s) in
  ignore (Aba.handle s ~src:1 (bval 1_000_000 true));
  let grown = Obj.reachable_words (Obj.repr s) - before in
  Alcotest.(check bool) (Printf.sprintf "round 10^6 costs %d words" grown) true (grown < 64);
  Alcotest.(check int) "current round unchanged" 0 (Aba.round s)

let () =
  Alcotest.run "agreement"
    [
      ( "aba",
        [
          Alcotest.test_case "unanimous validity" `Quick test_unanimous_validity;
          Alcotest.test_case "all schedulers" `Quick test_unanimous_all_schedulers;
          Alcotest.test_case "mixed agreement" `Quick test_mixed_agreement;
          Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance;
          Alcotest.test_case "local coin" `Quick test_local_coin_terminates;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "duplicates count once" `Quick test_aba_duplicates_count_once;
          Alcotest.test_case "self AUX replaces" `Quick test_aba_self_aux_replaces;
          Alcotest.test_case "out-of-range src ignored" `Quick test_aba_ignores_out_of_range_src;
          Alcotest.test_case "far round is sparse" `Quick test_aba_far_round_is_sparse;
        ] );
    ]
