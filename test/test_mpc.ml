(* End-to-end tests for the asynchronous MPC substrate: AVSS sessions and
   the full engine running inside the simulator. *)

open Sim.Types
module Gf = Field.Gf
module Avss = Mpc.Avss
module Engine = Mpc.Engine

let gf = Alcotest.testable Gf.pp Gf.equal

let to_effects sends = List.map (fun (dst, m) -> Send (dst, m)) sends

(* --- AVSS alone --- *)

let avss_proc ~n ~t ~me ~dealer ~secret =
  let session = Avss.create ~n ~degree:t ~faults:t ~me ~dealer in
  let rng = Random.State.make [| 7; me |] in
  let emit (r : Avss.reaction) =
    to_effects r.Avss.sends
    @ (match r.Avss.accepted with Some v -> [ Move (Gf.to_int v) ] | None -> [])
  in
  {
    start =
      (fun () ->
        if me = dealer then emit (Avss.deal session rng ~secret) else []);
    receive = (fun ~src m -> emit (Avss.handle session ~src m));
    will = (fun () -> None);
  }

let silent = { start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = (fun () -> None) }

let run ?(sched = Sim.Scheduler.fifo ()) ?(max_steps = 2_000_000) procs =
  Sim.Runner.run (Sim.Runner.config ~max_steps ~scheduler:sched procs)

let test_avss_share_reconstruct () =
  let n = 4 and t = 1 in
  let secret = Gf.of_int 4242 in
  List.iter
    (fun seed ->
      let procs = Array.init n (fun me -> avss_proc ~n ~t ~me ~dealer:0 ~secret) in
      let o = run ~sched:(Sim.Scheduler.random_seeded seed) procs in
      (* all players accept *)
      let shares =
        Array.to_list
          (Array.mapi
             (fun i mv ->
               match mv with
               | Some v -> { Shamir.index = i + 1; value = Gf.of_int v }
               | None -> Alcotest.failf "player %d did not accept (seed %d)" i seed)
             o.moves)
      in
      match Shamir.reconstruct ~t shares with
      | Some s -> Alcotest.check gf "secret reconstructs" secret s
      | None -> Alcotest.fail "reconstruction failed")
    (List.init 10 (fun i -> i))

let test_avss_crashed_dealer () =
  let n = 4 and t = 1 in
  let procs = Array.init n (fun me -> avss_proc ~n ~t ~me ~dealer:0 ~secret:Gf.one) in
  procs.(0) <- silent;
  let o = run procs in
  Array.iter (fun mv -> Alcotest.(check (option int)) "nobody accepts" None mv) o.moves

let test_avss_crash_after_deal () =
  (* The dealer deals but one recipient is cut off from the dealer: the
     recovery path (row from cross points) must still give it a share.
     We emulate by a dealer that sends rows to only 3 of 4 players. *)
  let n = 4 and t = 1 in
  let secret = Gf.of_int 99 in
  let sessions = Array.init n (fun me -> Avss.create ~n ~degree:t ~faults:t ~me ~dealer:0) in
  let rng = Random.State.make [| 13 |] in
  let dealer_proc =
    {
      start =
        (fun () ->
          let r = Avss.deal sessions.(0) rng ~secret in
          (* drop the row aimed at player 3 *)
          to_effects
            (List.filter
               (fun (dst, m) ->
                 match m with Avss.Row _ -> dst <> 3 | _ -> true)
               r.Avss.sends));
      receive =
        (fun ~src m -> to_effects (Avss.handle sessions.(0) ~src m).Avss.sends);
      will = (fun () -> None);
    }
  in
  let honest me =
    {
      start = (fun () -> []);
      receive =
        (fun ~src m ->
          let r = Avss.handle sessions.(me) ~src m in
          to_effects r.Avss.sends
          @ (match r.Avss.accepted with Some v -> [ Move (Gf.to_int v) ] | None -> []));
      will = (fun () -> None);
    }
  in
  let procs = Array.init n (fun me -> if me = 0 then dealer_proc else honest me) in
  let o = run procs in
  (match o.moves.(3) with
  | Some _ -> ()
  | None -> Alcotest.fail "player 3 should recover its share");
  let shares =
    List.filteri (fun i _ -> i > 0) (Array.to_list o.moves)
    |> List.mapi (fun i mv ->
           match mv with
           | Some v -> { Shamir.index = i + 2; value = Gf.of_int v }
           | None -> Alcotest.fail "missing share")
  in
  ignore (Alcotest.(check bool) "shares consistent" true (Shamir.verify_consistent ~t shares))

let test_avss_equivocating_dealer () =
  (* A Byzantine dealer sends half the players rows from one bivariate
     polynomial and the other half rows from a different one. The pairwise
     point checks must starve the READY quorum: nobody accepts. *)
  let n = 4 and t = 1 in
  let rng = Random.State.make [| 41 |] in
  let b1 = Field.Bipoly.random_symmetric rng ~degree:t ~secret:(Gf.of_int 1) in
  let b2 = Field.Bipoly.random_symmetric rng ~degree:t ~secret:(Gf.of_int 2) in
  let dealer_proc =
    Sim.Types.
      {
        start =
          (fun () ->
            (* hand-crafted equivocation: rows of b1 to players 1,2; b2 to 3 *)
            List.map
              (fun j ->
                let b = if j <= 2 then b1 else b2 in
                Send (j, Avss.Row (Field.Bipoly.row b (Gf.of_int (j + 1)))))
              [ 1; 2; 3 ]);
        receive = (fun ~src:_ _ -> []);
        will = (fun () -> None);
      }
  in
  (* fresh sessions per scheduler seed *)
  List.iter
    (fun seed ->
      let sessions = Array.init n (fun me -> Avss.create ~n ~degree:t ~faults:t ~me ~dealer:0) in
      let honest me =
        Sim.Types.
          {
            start = (fun () -> []);
            receive =
              (fun ~src m ->
                let r = Avss.handle sessions.(me) ~src m in
                to_effects r.Avss.sends
                @ (match r.Avss.accepted with Some v -> [ Move (Gf.to_int v) ] | None -> []));
            will = (fun () -> None);
          }
      in
      let procs = Array.init n (fun me -> if me = 0 then dealer_proc else honest me) in
      let o = run ~sched:(Sim.Scheduler.random_seeded seed) procs in
      for i = 1 to n - 1 do
        Alcotest.(check (option int))
          (Printf.sprintf "player %d must not accept (seed %d)" i seed)
          None o.moves.(i)
      done)
    [ 1; 2; 3; 4 ]

(* The corroboration counter against its recount. One instance at
   n in {4, 5, 7, 9} with a valid degree and fault bound receives every
   other player's Point and Ready in a random order; up to [faults]
   sources send points off the row, and the dealer's Row is withheld (so
   the row is recovered), delivered after every point, or shuffled in.
   When the instance is the dealer, it deals at a random step instead.
   After every step the count must equal the recount. *)
let avss_counter_matches_recount seed =
  let rng = Random.State.make [| seed; 0xA55 |] in
  let n = List.nth [ 4; 5; 7; 9 ] (Random.State.int rng 4) in
  let faults = Random.State.int rng (((n - 1) / 3) + 1) in
  let degree = 1 + Random.State.int rng (n - (2 * faults) - 1) in
  let me = Random.State.int rng n and dealer = Random.State.int rng n in
  let at i = Gf.of_int (i + 1) in
  let b = Field.Bipoly.random_symmetric rng ~degree ~secret:(Gf.of_int 7) in
  let liars = ref (Random.State.int rng (faults + 1)) in
  let msgs = ref [] in
  for j = 0 to n - 1 do
    if j <> me then begin
      let p = Field.Poly.eval (Field.Bipoly.row b (at j)) (at me) in
      let p =
        if !liars > 0 && Random.State.bool rng then begin
          decr liars;
          Gf.add p (Gf.of_int (1 + Random.State.int rng 1000))
        end
        else p
      in
      msgs := (j, Avss.Point p) :: (j, Avss.Ready) :: !msgs
    end
  done;
  let shuffle l =
    List.map snd
      (List.sort
         (fun (a, _) (b, _) -> Int.compare a b)
         (List.map (fun m -> (Random.State.bits rng, m)) l))
  in
  let row = (dealer, Avss.Row (Field.Bipoly.row b (at me))) in
  let order =
    if dealer = me then shuffle !msgs
    else
      match Random.State.int rng 3 with
      | 0 -> shuffle !msgs (* withheld *)
      | 1 -> shuffle !msgs @ [ row ]
      | _ -> shuffle (row :: !msgs)
  in
  let s = Avss.create ~n ~degree ~faults ~me ~dealer in
  let agrees () = Avss.corroboration s = Avss.Ref.matching_points s in
  let deal_at = if dealer = me then Random.State.int rng (List.length order + 1) else -1 in
  let step i (src, m) =
    if i = deal_at then ignore (Avss.deal s rng ~secret:Gf.one);
    ignore (Avss.handle s ~src m);
    agrees ()
  in
  let ok = List.for_all Fun.id (List.mapi step order) in
  if deal_at = List.length order then ignore (Avss.deal s rng ~secret:Gf.one);
  ok && agrees ()

let prop_avss_counter_matches_recount =
  QCheck.Test.make ~name:"corroboration count = recount (random arrivals)" ~count:300
    QCheck.pos_int avss_counter_matches_recount

(* --- full engine --- *)

let engine_proc ~n ~t ~me ~circuit ~input ~coin_seed ~results =
  let e =
    Engine.create ~n ~degree:t ~faults:t ~me ~circuit ~input
      ~rng:(Random.State.make [| 23; me |]) ~coin_seed ()
  in
  let emit (r : Engine.reaction) =
    (match r.Engine.result with Some v -> results.(me) <- Some v | None -> ());
    to_effects r.Engine.sends
  in
  ( e,
    {
      start = (fun () -> emit (Engine.start e));
      receive = (fun ~src m -> emit (Engine.handle e ~src m));
      will = (fun () -> None);
    } )

(* The engines (to read after the run) and each player's result. *)
let run_mpc ?(sched_seed = 0) ?(t = 1) ~circuit ~inputs () =
  let n = Array.length inputs in
  let results = Array.make n None in
  let engines, procs =
    Array.split
      (Array.init n (fun me ->
           engine_proc ~n ~t ~me ~circuit ~input:inputs.(me) ~coin_seed:(sched_seed + 77)
             ~results))
  in
  ignore (run ~sched:(Sim.Scheduler.random_seeded sched_seed) procs);
  (engines, results)

let ints l = Array.of_list (List.map Gf.of_int l)

let test_engine_identity () =
  let circuit = Circuit.identity_selector ~n_inputs:4 in
  let inputs = ints [ 10; 20; 30; 40 ] in
  let _, results = run_mpc ~circuit ~inputs () in
  Array.iteri
    (fun i r ->
      match r with
      | Some v -> Alcotest.check gf (Printf.sprintf "player %d" i) inputs.(i) v
      | None -> Alcotest.failf "player %d no result" i)
    results

let test_engine_sum () =
  let circuit = Circuit.sum ~n_inputs:4 in
  let inputs = ints [ 1; 2; 3; 4 ] in
  List.iter
    (fun seed ->
      let _, results = run_mpc ~sched_seed:seed ~circuit ~inputs () in
      Array.iter
        (fun r ->
          match r with
          | Some v -> Alcotest.check gf "sum" (Gf.of_int 10) v
          | None -> Alcotest.fail "no result")
        results)
    (List.init 5 (fun i -> i))

let test_engine_majority () =
  (* Exercises multiplication gates (degree reduction). *)
  let circuit = Circuit.majority ~n_inputs:5 in
  let inputs = ints [ 1; 1; 1; 0; 0 ] in
  let _, results = run_mpc ~circuit ~inputs () in
  Array.iter
    (fun r ->
      match r with
      | Some v -> Alcotest.check gf "majority is 1" Gf.one v
      | None -> Alcotest.fail "no result")
    results

let test_engine_shared_randomness () =
  let circuit = Circuit.coin_plus_input ~n_inputs:4 in
  let inputs = ints [ 100; 200; 300; 400 ] in
  let _, results = run_mpc ~circuit ~inputs () in
  (* out_i - x_i must be the same shared random value for everyone *)
  let offsets =
    Array.mapi
      (fun i r ->
        match r with
        | Some v -> Gf.sub v inputs.(i)
        | None -> Alcotest.fail "no result")
      results
  in
  Array.iter (fun o -> Alcotest.check gf "same coin" offsets.(0) o) offsets

let test_engine_crash () =
  (* One player silent: the core set excludes it; its input defaults to 0. *)
  let n = 4 and t = 1 in
  let circuit = Circuit.sum ~n_inputs:n in
  let inputs = ints [ 1; 2; 3; 4 ] in
  let results = Array.make n None in
  let cores : int list option array = Array.make n None in
  let engines =
    Array.init n (fun me ->
        Engine.create ~n ~degree:t ~faults:t ~me ~circuit ~input:inputs.(me)
          ~rng:(Random.State.make [| 5; me |])
          ~coin_seed:123 ())
  in
  let procs =
    Array.init n (fun me ->
        let e = engines.(me) in
        let emit (r : Engine.reaction) =
          (match r.Engine.result with
          | Some v ->
              results.(me) <- Some v;
              cores.(me) <- Engine.input_core e
          | None -> ());
          to_effects r.Engine.sends
        in
        {
          start = (fun () -> emit (Engine.start e));
          receive = (fun ~src m -> emit (Engine.handle e ~src m));
          will = (fun () -> None);
        })
  in
  procs.(3) <- silent;
  let _o = run procs in
  List.iter
    (fun i ->
      match (results.(i), cores.(i)) with
      | Some v, Some core ->
          let expected =
            List.fold_left (fun acc d -> Gf.add acc inputs.(d)) Gf.zero core
          in
          Alcotest.check gf (Printf.sprintf "player %d sum over core" i) expected v;
          Alcotest.(check bool) "core >= n-t" true (List.length core >= n - t);
          Alcotest.(check bool) "crashed not in core" false (List.mem 3 core)
      | _ -> Alcotest.failf "player %d incomplete" i)
    [ 0; 1; 2 ]

let test_engine_corrupted_output_shares () =
  (* A Byzantine player participates honestly except that it lies in the
     Output phase: robust reconstruction (OEC) must still be correct. *)
  let n = 5 and t = 1 in
  let circuit = Circuit.sum ~n_inputs:n in
  let inputs = ints [ 1; 2; 3; 4; 5 ] in
  let results = Array.make n None in
  let corrupt_output = 2 in
  let procs =
    Array.init n (fun me ->
        let e =
          Engine.create ~n ~degree:t ~faults:t ~me ~circuit ~input:inputs.(me)
            ~rng:(Random.State.make [| 31; me |])
            ~coin_seed:55 ()
        in
        let tamper sends =
          if me <> corrupt_output then sends
          else
            List.map
              (fun (dst, m) ->
                match m with
                | Engine.Output_msg (st, v) -> (dst, Engine.Output_msg (st, Gf.add v Gf.one))
                | _ -> (dst, m))
              sends
        in
        let emit (r : Engine.reaction) =
          (match r.Engine.result with Some v -> results.(me) <- Some v | None -> ());
          to_effects (tamper r.Engine.sends)
        in
        {
          start = (fun () -> emit (Engine.start e));
          receive = (fun ~src m -> emit (Engine.handle e ~src m));
          will = (fun () -> None);
        })
  in
  let _o = run procs in
  Array.iteri
    (fun i r ->
      if i <> corrupt_output then
        match r with
        | Some v -> Alcotest.check gf (Printf.sprintf "player %d correct" i) (Gf.of_int 15) v
        | None -> Alcotest.failf "player %d no result" i)
    results

let test_engine_bcg_mode () =
  (* n > 4t: the BCG errorless regime, with a mul-heavy circuit. *)
  let circuit = Circuit.majority ~n_inputs:5 in
  let inputs = ints [ 0; 0; 1; 0; 1 ] in
  let _, results = run_mpc ~t:1 ~circuit ~inputs () in
  Array.iter
    (fun r ->
      match r with
      | Some v -> Alcotest.check gf "majority is 0" Gf.zero v
      | None -> Alcotest.fail "no result")
    results

(* --- property: MPC agrees with clear evaluation on random circuits --- *)

(* Build a random circuit from a restricted gate menu so evaluation stays
   cheap: linear gates plus up to [max_muls] multiplications. *)
let random_small_circuit rng ~n ~max_muls =
  let n_gates = n + 4 + Random.State.int rng 10 in
  let gates = Array.make n_gates (Circuit.Const Gf.zero) in
  let muls = ref 0 in
  for pos = 0 to n_gates - 1 do
    let earlier () = Random.State.int rng (max 1 pos) in
    gates.(pos) <-
      (if pos < n then Circuit.Input pos
       else
         match Random.State.int rng 5 with
         | 0 -> Circuit.Add (earlier (), earlier ())
         | 1 -> Circuit.Sub (earlier (), earlier ())
         | 2 -> Circuit.Scale (Gf.random rng, earlier ())
         | 3 when !muls < max_muls ->
             incr muls;
             Circuit.Mul (earlier (), earlier ())
         | _ -> Circuit.Const (Gf.random rng))
  done;
  let outputs = Array.init n (fun _ -> n_gates - 1 - Random.State.int rng (min 4 n_gates)) in
  Circuit.create ~n_inputs:n ~n_random:0 ~gates ~outputs ()

(* One random-circuit run at n = 4, t = 1: the inputs, every player's
   input core read after the run (at result time a player may not know
   it yet), and whether every result equals the circuit evaluated over
   given inputs. *)
let random_mpc seed =
  let rng = Random.State.make [| seed; 97 |] in
  let circuit = random_small_circuit rng ~n:4 ~max_muls:2 in
  let inputs = Array.init 4 (fun _ -> Gf.random rng) in
  let engines, results = run_mpc ~sched_seed:seed ~t:1 ~circuit ~inputs () in
  let matches inputs =
    Array.for_all2
      (fun r e -> match r with Some v -> Gf.equal v e | None -> false)
      results
      (Circuit.eval circuit ~inputs ~random:[||])
  in
  (inputs, Array.map Engine.input_core engines, matches)

(* The players compute over the agreed input core, not over every input:
   the ACS may leave out any t dealers, honest ones included (a core
   needs only n - t), and an excluded dealer's input counts as 0. So every
   player must report the same core of at least n - t dealers, and every
   result must equal the circuit over the inputs zeroed outside it — the
   plain clear evaluation when the core is everyone. *)
let mpc_matches_core_eval seed =
  let inputs, cores, matches = random_mpc seed in
  match cores.(0) with
  | Some core when List.length core >= 3 && Array.for_all (( = ) cores.(0)) cores ->
      matches (Array.mapi (fun d x -> if List.mem d core then x else Gf.zero) inputs)
  | _ -> false

let prop_mpc_matches_clear_eval =
  QCheck.Test.make ~name:"MPC = clear evaluation (random circuits, random schedulers)"
    ~count:25 QCheck.pos_int mpc_matches_core_eval

let test_engine_core_without_honest_dealer () =
  let seed = 2422770305318524234 in
  let inputs, cores, matches = random_mpc seed in
  Alcotest.(check (array (option (list int))))
    "every core leaves honest player 0 out" (Array.make 4 (Some [ 1; 2; 3 ])) cores;
  Alcotest.(check bool) "so the plain clear evaluation fails" false (matches inputs);
  Alcotest.(check bool) "and the evaluation over the core holds" true
    (mpc_matches_core_eval seed)

let prop_mpc_crash_still_correct =
  QCheck.Test.make ~name:"MPC with one crash computes over the core set" ~count:10
    QCheck.pos_int (fun seed ->
      let n = 4 and t = 1 in
      let circuit = Circuit.sum ~n_inputs:n in
      let rng = Random.State.make [| seed; 131 |] in
      let inputs = Array.init n (fun _ -> Gf.of_int (Random.State.int rng 1000)) in
      let results = Array.make n None in
      let cores : int list option array = Array.make n None in
      let procs =
        Array.init n (fun me ->
            let e =
              Engine.create ~n ~degree:t ~faults:t ~me ~circuit ~input:inputs.(me)
                ~rng:(Random.State.make [| seed; me; 7 |])
                ~coin_seed:(seed + 5) ()
            in
            let emit (r : Engine.reaction) =
              (match r.Engine.result with
              | Some v ->
                  results.(me) <- Some v;
                  cores.(me) <- Engine.input_core e
              | None -> ());
              to_effects r.Engine.sends
            in
            {
              start = (fun () -> emit (Engine.start e));
              receive = (fun ~src m -> emit (Engine.handle e ~src m));
              will = (fun () -> None);
            })
      in
      let crashed = Random.State.int rng n in
      procs.(crashed) <- silent;
      let _o = run ~sched:(Sim.Scheduler.random_seeded seed) procs in
      List.for_all
        (fun i ->
          i = crashed
          ||
          match (results.(i), cores.(i)) with
          | Some v, Some core ->
              let expected =
                List.fold_left (fun acc d -> Gf.add acc inputs.(d)) Gf.zero core
              in
              Gf.equal v expected && not (List.mem crashed core)
          | _ -> false)
        (List.init n (fun i -> i)))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "mpc"
    [
      ( "avss",
        [
          Alcotest.test_case "share+reconstruct" `Quick test_avss_share_reconstruct;
          Alcotest.test_case "crashed dealer" `Quick test_avss_crashed_dealer;
          Alcotest.test_case "row recovery" `Quick test_avss_crash_after_deal;
          Alcotest.test_case "equivocating dealer" `Quick test_avss_equivocating_dealer;
          QCheck_alcotest.to_alcotest ~long:false prop_avss_counter_matches_recount;
        ] );
      ( "engine",
        [
          Alcotest.test_case "identity" `Quick test_engine_identity;
          Alcotest.test_case "sum" `Quick test_engine_sum;
          Alcotest.test_case "majority (muls)" `Quick test_engine_majority;
          Alcotest.test_case "shared randomness" `Quick test_engine_shared_randomness;
          Alcotest.test_case "crash tolerance" `Quick test_engine_crash;
          Alcotest.test_case "corrupted output shares" `Quick test_engine_corrupted_output_shares;
          Alcotest.test_case "bcg mode" `Quick test_engine_bcg_mode;
          Alcotest.test_case "core without an honest dealer" `Quick
            test_engine_core_without_honest_dealer;
        ] );
      ("props", qsuite [ prop_mpc_matches_clear_eval; prop_mpc_crash_still_correct ]);
    ]
