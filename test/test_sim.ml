(* Tests for the asynchronous simulator: delivery, fairness, relaxed
   schedulers, batch atomicity, wills and defaults. *)

open Sim.Types

type msg = Ping | Pong | Data of int

let no_will () = None

let ping_pong_processes () =
  let p0 =
    {
      start = (fun () -> [ Send (1, Ping) ]);
      receive =
        (fun ~src:_ m -> match m with Pong -> [ Move 1; Halt ] | _ -> []);
      will = no_will;
    }
  in
  let p1 =
    {
      start = (fun () -> []);
      receive =
        (fun ~src:_ m -> match m with Ping -> [ Send (0, Pong); Move 0; Halt ] | _ -> []);
      will = no_will;
    }
  in
  [| p0; p1 |]

(* Recorded: most tests here read the trace. *)
let run ?mediator ?max_steps ?starvation_bound scheduler processes =
  Sim.Runner.run
    (Sim.Runner.config ~record:true ?mediator ?max_steps ?starvation_bound ~scheduler processes)

let test_ping_pong () =
  let o = run (Sim.Scheduler.fifo ()) (ping_pong_processes ()) in
  Alcotest.(check bool) "all halted" true (o.termination = All_halted);
  Alcotest.(check int) "messages sent" 2 o.messages_sent;
  Alcotest.(check int) "messages delivered" 2 o.messages_delivered;
  Alcotest.(check (option int)) "p0 moved 1" (Some 1) o.moves.(0);
  Alcotest.(check (option int)) "p1 moved 0" (Some 0) o.moves.(1)

let test_ping_pong_all_schedulers () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun sched ->
      let o = run sched (ping_pong_processes ()) in
      Alcotest.(check (option int))
        (Printf.sprintf "p0 under %s" sched.Sim.Scheduler.name)
        (Some 1) o.moves.(0))
    (Sim.Scheduler.standard_library rng)

let flood_processes n =
  Array.init n (fun i ->
      {
        start =
          (fun () -> List.init (n - 1) (fun j -> Send ((i + 1 + j) mod n, Data i)));
        receive = (fun ~src:_ _ -> []);
        will = no_will;
      })

let test_flood_counts () =
  let n = 5 in
  let o = run (Sim.Scheduler.random_seeded 3) (flood_processes n) in
  Alcotest.(check int) "n(n-1) messages" (n * (n - 1)) o.messages_sent;
  Alcotest.(check int) "all delivered" (n * (n - 1)) o.messages_delivered;
  Alcotest.(check bool) "quiescent (nobody halts)" true (o.termination = Quiescent)

let test_seq_numbers () =
  (* Player 0 sends three messages to player 1; seq must be 1,2,3. *)
  let p0 =
    {
      start = (fun () -> [ Send (1, Data 0); Send (1, Data 1); Send (1, Data 2) ]);
      receive = (fun ~src:_ _ -> []);
      will = no_will;
    }
  in
  let p1 = { start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = no_will } in
  let o = run (Sim.Scheduler.fifo ()) [| p0; p1 |] in
  let sent_seqs =
    List.filter_map
      (function Sent { src = 0; dst = 1; seq } -> Some seq | _ -> None)
      o.trace
  in
  Alcotest.(check (list int)) "seq numbers" [ 1; 2; 3 ] sent_seqs

let test_fairness_forces_delivery () =
  (* Player 0 sends one message to player 1. Players 2 and 3 chatter for a
     long time. A scheduler that always prefers the chatter must still be
     forced (starvation bound) to deliver 0 -> 1 early. *)
  let chatter_rounds = 2000 in
  let p0 =
    { start = (fun () -> [ Send (1, Data 99) ]); receive = (fun ~src:_ _ -> []); will = no_will }
  in
  let received = ref (-1) in
  let p1 =
    {
      start = (fun () -> []);
      receive =
        (fun ~src:_ m ->
          (match m with Data v -> received := v | _ -> ());
          []);
      will = no_will;
    }
  in
  let mk_chatter me peer =
    let count = ref 0 in
    {
      start = (fun () -> if me < peer then [ Send (peer, Ping) ] else []);
      receive =
        (fun ~src:_ _ ->
          incr count;
          if !count < chatter_rounds then [ Send (peer, Pong) ] else []);
      will = no_will;
    }
  in
  let avoid_victim =
    Sim.Scheduler.custom ~name:"avoid-1" ~relaxed:false
      (fun ~step:_ ~history:_ ~pending ->
        match Sim.Pending_set.find pending (fun v -> v.dst <> 1 && v.src <> 1) with
        | Some v -> Deliver v.id
        | None -> Deliver (Sim.Pending_set.oldest pending).id)
  in
  let o =
    run ~starvation_bound:50 ~max_steps:50_000 avoid_victim
      [| p0; p1; mk_chatter 2 3; mk_chatter 3 2 |]
  in
  Alcotest.(check int) "victim got the message" 99 !received;
  (* It must have been force-delivered long before the chatter ended. *)
  let delivery_step =
    let rec find i = function
      | [] -> -1
      | Delivered { src = 0; dst = 1; _ } :: _ -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 o.trace
  in
  Alcotest.(check bool) "forced early" true (delivery_step >= 0 && delivery_step < 300)

let test_relaxed_deadlock_and_wills () =
  let p0 =
    {
      start = (fun () -> [ Send (1, Ping) ]);
      receive = (fun ~src:_ _ -> [ Move 1; Halt ]);
      will = (fun () -> Some 7);
    }
  in
  let p1 =
    {
      start = (fun () -> []);
      receive = (fun ~src:_ _ -> [ Send (0, Pong); Move 0; Halt ]);
      will = (fun () -> Some 8);
    }
  in
  let procs = [| p0; p1 |] in
  (* Stop after the two start signals: the Ping is never delivered. *)
  let o = run (Sim.Scheduler.relaxed_stop_after 2) procs in
  Alcotest.(check bool) "deadlocked" true (o.termination = Deadlocked);
  Alcotest.(check (option int)) "p0 never moved" None o.moves.(0);
  let willed = Sim.Runner.moves_with_wills procs o in
  Alcotest.(check (option int)) "p0 will fires" (Some 7) willed.(0);
  Alcotest.(check (option int)) "p1 will fires" (Some 8) willed.(1);
  let defaults = Sim.Runner.moves_with_defaults ~default:(fun pid -> 100 + pid) o in
  Alcotest.(check int) "p0 default" 100 defaults.(0);
  Alcotest.(check int) "p1 default" 101 defaults.(1)

let test_batch_atomicity () =
  (* The mediator (pid 2) sends one message to each player in a single
     activation. A relaxed scheduler that stops right after the first of
     them must still see the whole batch delivered (Section 5 rule). *)
  let got0 = ref false and got1 = ref false in
  let player flag =
    {
      start = (fun () -> []);
      receive =
        (fun ~src:_ _ ->
          flag := true;
          []);
      will = no_will;
    }
  in
  let mediator =
    {
      start = (fun () -> [ Send (0, Data 0); Send (1, Data 1) ]);
      receive = (fun ~src:_ _ -> []);
      will = no_will;
    }
  in
  (* fifo delivers: start0, start1, start2 (mediator sends batch), then
     one real message; stop after 4 decisions = just after the first
     mediator message. *)
  let o =
    run ~mediator:2
      (Sim.Scheduler.relaxed_stop_after 4)
      [| player got0; player got1; mediator |]
  in
  Alcotest.(check bool) "deadlocked" true (o.termination = Deadlocked);
  Alcotest.(check bool) "player 0 got its message" true !got0;
  Alcotest.(check bool) "player 1 got its message (atomicity)" true !got1;
  Alcotest.(check int) "both delivered" 2 o.messages_delivered

let test_at_most_one_move () =
  let p0 =
    {
      start = (fun () -> [ Move 1; Move 2; Halt ]);
      receive = (fun ~src:_ _ -> []);
      will = no_will;
    }
  in
  let o = run (Sim.Scheduler.fifo ()) [| p0 |] in
  Alcotest.(check (option int)) "first move wins" (Some 1) o.moves.(0)

let test_halted_ignores_messages () =
  let count = ref 0 in
  let p0 =
    {
      start = (fun () -> [ Send (1, Ping); Send (1, Ping) ]);
      receive = (fun ~src:_ _ -> []);
      will = no_will;
    }
  in
  let p1 =
    {
      start = (fun () -> []);
      receive =
        (fun ~src:_ _ ->
          incr count;
          [ Halt ]);
      will = no_will;
    }
  in
  let o = run (Sim.Scheduler.fifo ()) [| p0; p1 |] in
  ignore o;
  Alcotest.(check int) "only first message processed" 1 !count

let test_cutoff () =
  (* Two players bounce a message forever: the driver cuts off. *)
  let bouncer peer =
    {
      start = (fun () -> if peer = 1 then [ Send (peer, Ping) ] else []);
      receive = (fun ~src _ -> [ Send (src, Pong) ]);
      will = no_will;
    }
  in
  let o = run ~max_steps:500 (Sim.Scheduler.fifo ()) [| bouncer 1; bouncer 0 |] in
  Alcotest.(check bool) "cutoff" true (o.termination = Cutoff)

let test_message_pattern () =
  let o = run (Sim.Scheduler.fifo ()) (ping_pong_processes ()) in
  let pat = Sim.Runner.message_pattern o in
  let sends =
    List.length
      (List.filter (function Sim.Scheduler.P_sent _ -> true | _ -> false) pat)
  in
  Alcotest.(check int) "pattern records sends" 2 sends

let test_determinism () =
  (* identical seeds -> bit-identical outcomes (the property resumable
     experiments and exact distribution comparisons rest on) *)
  let mk () = flood_processes 5 in
  let run_seeded seed =
    let o = run (Sim.Scheduler.random_seeded seed) (mk ()) in
    (o.moves, o.messages_sent, o.steps, List.length o.trace)
  in
  for seed = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "seed %d deterministic" seed)
      true
      (run_seeded seed = run_seeded seed)
  done

let test_pending_set () =
  (* unit coverage of the intrusive pending set used by the driver *)
  let open Sim.Pending_set in
  let s = create () in
  Alcotest.(check bool) "empty" true (is_empty s);
  let mk id = { Sim.Types.id; src = 0; dst = 1; seq = id; sent_step = 0; batch = -1 } in
  let n1 = append s (mk 1) in
  let _n2 = append s (mk 2) in
  let n3 = append s (mk 3) in
  Alcotest.(check int) "count" 3 (count s);
  Alcotest.(check int) "oldest" 1 (oldest s).Sim.Types.id;
  Alcotest.(check int) "newest" 3 (newest s).Sim.Types.id;
  Alcotest.(check int) "nth 1" 2 (nth s 1).Sim.Types.id;
  remove s n1;
  remove s n1 (* idempotent *);
  Alcotest.(check int) "count after remove" 2 (count s);
  Alcotest.(check int) "oldest now" 2 (oldest s).Sim.Types.id;
  remove s n3;
  Alcotest.(check int) "newest now" 2 (newest s).Sim.Types.id;
  Alcotest.(check (list int)) "to_list" [ 2 ]
    (List.map (fun v -> v.Sim.Types.id) (to_list s));
  let rng = Random.State.make [| 4 |] in
  (match choose_where s (fun v -> v.Sim.Types.id = 2) ~rng with
  | Some v -> Alcotest.(check int) "choose_where" 2 v.Sim.Types.id
  | None -> Alcotest.fail "choose_where missed");
  Alcotest.(check bool) "choose_where none" true
    (Option.is_none (choose_where s (fun v -> v.Sim.Types.id = 9) ~rng))

(* Differential check of [nth], which walks from the nearer end, against
   the list walk: after every step of a random sequence of append,
   remove and clear, [nth s i] is the i-th element of [to_list s] for
   every i, so both halves of the list are covered. *)
let prop_nth_matches_to_list =
  QCheck.Test.make ~count:300 ~name:"pending set: nth agrees with to_list"
    QCheck.(list_of_size Gen.(0 -- 200) (pair (int_bound 9) small_nat))
    (fun ops ->
      let open Sim.Pending_set in
      let s = create () in
      (* handles appended since the last clear (stale ones must not be
         removed after [clear]); removing one twice is a no-op *)
      let handles = ref [||] in
      let next_id = ref 0 in
      List.for_all
        (fun (op, k) ->
          (if op = 0 then begin
             clear s;
             handles := [||]
           end
           else if op <= 4 && Array.length !handles > 0 then
             remove s !handles.(k mod Array.length !handles)
           else begin
             let id = !next_id in
             incr next_id;
             let v =
               { Sim.Types.id; src = k mod 3; dst = 1; seq = id; sent_step = 0; batch = -1 }
             in
             handles := Array.append !handles [| append s v |]
           end);
          let l = Array.of_list (to_list s) in
          Array.length l = count s
          && List.for_all
               (fun i -> Int.equal (nth s i).Sim.Types.id l.(i).Sim.Types.id)
               (List.init (Array.length l) Fun.id))
        ops)

(* --- exhaustive exploration --- *)

let test_explore_ping_pong_confluent () =
  let r = Sim.Explore.explore ~make:ping_pong_processes () in
  Alcotest.(check bool) "exhaustive" true r.Sim.Explore.exhaustive;
  Alcotest.(check bool) "several interleavings" true (r.Sim.Explore.histories > 1);
  Alcotest.(check bool) "all interleavings agree on moves" true
    (Sim.Explore.all_outcomes_agree (fun o -> o.moves) r)

let test_explore_counts_interleavings () =
  (* two independent one-message channels: 2 start signals and 2 messages
     give a known small set of interleavings; exploration must terminate
     exhaustively and every history must deliver everything *)
  let make () =
    [|
      { start = (fun () -> [ Send (1, Ping) ]); receive = (fun ~src:_ _ -> []); will = no_will };
      { start = (fun () -> [ Send (0, Pong) ]); receive = (fun ~src:_ _ -> []); will = no_will };
    |]
  in
  let r = Sim.Explore.explore ~make () in
  Alcotest.(check bool) "exhaustive" true r.Sim.Explore.exhaustive;
  List.iter
    (fun (o : int Sim.Types.outcome) ->
      Alcotest.(check int) "everything delivered" 2 o.messages_delivered)
    r.Sim.Explore.outcomes;
  (* 4 schedulable events: 2 start signals, 2 deliveries. Orders satisfy
     "a message exists only after its sender started", and — per the
     paper's start rule — a message delivered to a not-yet-started player
     first triggers that player's start. Orders of {S0,S1,A,B} with S0<A
     and (S1<B or A<B): 8. Locked to catch semantic regressions. *)
  Alcotest.(check int) "interleaving count" 8 r.Sim.Explore.histories

let test_explore_order_sensitive_not_confluent () =
  (* a protocol whose outcome depends on delivery order must show at
     least two distinct outcomes across interleavings *)
  let make () =
    let judge_moved = ref false in
    [|
      { start = (fun () -> [ Send (2, Ping) ]); receive = (fun ~src:_ _ -> []); will = no_will };
      { start = (fun () -> [ Send (2, Pong) ]); receive = (fun ~src:_ _ -> []); will = no_will };
      {
        start = (fun () -> []);
        receive =
          (fun ~src _ ->
            if !judge_moved then []
            else begin
              judge_moved := true;
              [ Move src; Halt ]
            end);
        will = no_will;
      };
    |]
  in
  let r = Sim.Explore.explore ~make () in
  Alcotest.(check bool) "exhaustive" true r.Sim.Explore.exhaustive;
  Alcotest.(check bool) "NOT confluent" false
    (Sim.Explore.all_outcomes_agree (fun o -> o.moves) r)

let test_trace_pp () =
  let o = run (Sim.Scheduler.fifo ()) (ping_pong_processes ()) in
  let chart = Sim.Trace_pp.chart o in
  let contains_arrow =
    let needle = "-->" in
    let n = String.length chart and m = String.length needle in
    let rec go i = i + m <= n && (String.sub chart i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "chart mentions a send" true contains_arrow;
  let s = Sim.Trace_pp.stats o in
  Alcotest.(check (list int)) "both halted" [ 0; 1 ] s.Sim.Trace_pp.halted_players;
  Alcotest.(check int) "two links" 2 (List.length s.Sim.Trace_pp.sends_per_pair);
  Alcotest.(check int) "two moves" 2 (List.length s.Sim.Trace_pp.moves)

let test_explore_cap () =
  (* the cap must be honoured and reported as non-exhaustive *)
  let r = Sim.Explore.explore ~max_histories:3 ~make:(fun () -> flood_processes 4) () in
  Alcotest.(check bool) "capped" false r.Sim.Explore.exhaustive;
  Alcotest.(check int) "exactly cap histories" 3 r.Sim.Explore.histories

let test_step_outcome_not_aliased () =
  (* regression: Step.cutoff (and every other outcome constructor) must
     snapshot moves/halted, not alias the driver's live arrays — a
     checker that forks or keeps exploring after taking an outcome would
     otherwise see its earlier snapshots rewritten by later deliveries *)
  let module Step = Sim.Runner.Step in
  let st = Step.create (ping_pong_processes ()) in
  Step.deliver_starts st;
  let snap = Step.cutoff st in
  Alcotest.(check (array (option int))) "snapshot taken before any move"
    [| None; None |] snap.moves;
  let rec drain () =
    let p = Step.pending st in
    if not (Sim.Pending_set.is_empty p) then begin
      Step.deliver st ~id:(Sim.Pending_set.oldest p).id;
      drain ()
    end
  in
  drain ();
  let final = Step.finish st in
  Alcotest.(check (option int)) "game actually finished" (Some 1) final.moves.(0);
  Alcotest.(check bool) "final halted" true (Array.for_all Fun.id final.halted);
  Alcotest.(check (array (option int))) "snapshot moves untouched by later deliveries"
    [| None; None |] snap.moves;
  Alcotest.(check (array bool)) "snapshot halted untouched by later deliveries"
    [| false; false |] snap.halted

(* --- watchdogs --------------------------------------------------- *)

(* 0 and 1 bounce one message forever, burning ~0.2ms of monotonic
   clock per delivery: only a watchdog can end the run, and by the
   first throttled clock check (decision 256) the limit below is
   comfortably exceeded *)
let forever_processes () =
  let spin () =
    let t0 = Sim.Runner.now () in
    while Sim.Runner.now () -. t0 < 2e-4 do
      ()
    done
  in
  let bounce me =
    {
      start = (fun () -> if me = 0 then [ Send (1, Ping) ] else []);
      receive =
        (fun ~src m ->
          spin ();
          [ Send (src, m) ]);
      will = no_will;
    }
  in
  [| bounce 0; bounce 1 |]

let test_wall_limit_times_out () =
  (* the monotonic wall watchdog: the limit passes the decision-0 check
     (taken microseconds after t_start) and must fire the livelock as
     Timed_out at the decision-256 check, with the drop-remaining path
     keeping the sent = delivered + dropped conservation *)
  let o =
    Sim.Runner.run
      (Sim.Runner.config ~wall_limit:0.01 ~max_steps:50_000_000
         ~scheduler:(Sim.Scheduler.fifo ()) (forever_processes ()))
  in
  Alcotest.(check bool) "timed out" true (o.termination = Timed_out);
  Alcotest.(check bool) "made some progress" true (o.steps > 0);
  Alcotest.(check bool) "ended well before max_steps" true (o.steps < 50_000_000);
  Alcotest.(check int) "timed_out counted" 1 o.metrics.Obs.Metrics.timed_out;
  Alcotest.(check bool) "in-flight message dropped" true
    (Obs.Metrics.dropped_total o.metrics >= 1);
  Alcotest.(check int) "conservation: sent = delivered + dropped"
    (Obs.Metrics.sent_total o.metrics)
    (Obs.Metrics.delivered_total o.metrics + Obs.Metrics.dropped_total o.metrics)

let test_wall_limit_not_hit () =
  (* a generous limit never fires: terminating runs are unaffected *)
  let o =
    Sim.Runner.run
      (Sim.Runner.config ~wall_limit:3600.0 ~scheduler:(Sim.Scheduler.fifo ())
         (ping_pong_processes ()))
  in
  Alcotest.(check bool) "all halted" true (o.termination = All_halted);
  Alcotest.(check int) "no timeout counted" 0 o.metrics.Obs.Metrics.timed_out

let test_record_off_same_outcome () =
  (* the default keeps no trace, and recording must not change anything
     else the outcome reports *)
  let on =
    Sim.Runner.run
      (Sim.Runner.config ~record:true ~scheduler:(Sim.Scheduler.random_seeded 5)
         (ping_pong_processes ()))
  in
  let off =
    Sim.Runner.run
      (Sim.Runner.config ~scheduler:(Sim.Scheduler.random_seeded 5) (ping_pong_processes ()))
  in
  Alcotest.(check bool) "trace recorded on request" true (on.trace <> []);
  Alcotest.(check bool) "trace off by default" true (off.trace = []);
  Alcotest.(check bool) "same termination" true (on.termination = off.termination);
  Alcotest.(check int) "same steps" on.steps off.steps;
  Alcotest.(check int) "same sent" on.messages_sent off.messages_sent;
  Alcotest.(check string) "same deterministic metrics"
    (Obs.Metrics.det_repr on.metrics)
    (Obs.Metrics.det_repr off.metrics)

let () =
  Alcotest.run "sim"
    [
      ( "runner",
        [
          Alcotest.test_case "ping-pong" `Quick test_ping_pong;
          Alcotest.test_case "all schedulers" `Quick test_ping_pong_all_schedulers;
          Alcotest.test_case "flood counts" `Quick test_flood_counts;
          Alcotest.test_case "seq numbers" `Quick test_seq_numbers;
          Alcotest.test_case "fairness" `Quick test_fairness_forces_delivery;
          Alcotest.test_case "relaxed deadlock + wills" `Quick test_relaxed_deadlock_and_wills;
          Alcotest.test_case "batch atomicity" `Quick test_batch_atomicity;
          Alcotest.test_case "at most one move" `Quick test_at_most_one_move;
          Alcotest.test_case "halted ignores messages" `Quick test_halted_ignores_messages;
          Alcotest.test_case "cutoff" `Quick test_cutoff;
          Alcotest.test_case "message pattern" `Quick test_message_pattern;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "pending set" `Quick test_pending_set;
          Alcotest.test_case "outcome not aliased" `Quick test_step_outcome_not_aliased;
          QCheck_alcotest.to_alcotest ~long:false prop_nth_matches_to_list;
        ] );
      ( "watchdogs",
        [
          Alcotest.test_case "wall_limit times out" `Quick test_wall_limit_times_out;
          Alcotest.test_case "wall_limit not hit" `Quick test_wall_limit_not_hit;
          Alcotest.test_case "record off, same outcome" `Quick test_record_off_same_outcome;
        ] );
      ( "explore",
        [
          Alcotest.test_case "ping-pong confluent" `Quick test_explore_ping_pong_confluent;
          Alcotest.test_case "interleaving count" `Quick test_explore_counts_interleavings;
          Alcotest.test_case "order-sensitive" `Quick test_explore_order_sensitive_not_confluent;
          Alcotest.test_case "history cap" `Quick test_explore_cap;
          Alcotest.test_case "trace pretty-printer" `Quick test_trace_pp;
        ] );
    ]
