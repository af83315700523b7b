(* Fixture catalog for the model checker (`ctmed check`, `make check`,
   the bench model_check section and the test suite).

   Each fixture packages a system, its properties and the expected
   verdict behind a monomorphic closure, so the CLI can run a
   heterogeneous list (mediator games, §6.4 cheap talk, plain vote
   protocols) without threading the message type around. *)

module Mc = Analysis.Mc
module Fx = Analysis.Fixtures
module Spec = Mediator.Spec
module Protocol = Mediator.Protocol
module Pitfall = Cheaptalk.Pitfall

type result = {
  pass : bool;
  ok : bool;  (** verdict matches the fixture's expectation *)
  repr : string;  (** [Mc.repr] of the verdict — canonical, diffable *)
  counterexample : string option;  (** pretty-printed, when violated *)
  findings : Analysis.Finding.t list;
  classes : int;
  deadlocks : int;
  stats : Mc.stats;
  exhaustive : bool;
}

type fixture = {
  name : string;
  descr : string;
  expect_violation : bool;
  default_max_states : int;
  run :
    ?backend:Mc.backend ->
    ?pool:Parallel.Pool.t ->
    ?max_states:int ->
    unit ->
    result;
}

let result ~expect_violation (v : int Mc.verdict) =
  let counterexample =
    Option.map
      (fun ce -> Format.asprintf "%a" (Mc.pp_counterexample ~mv:string_of_int) ce)
      v.Mc.violation
  in
  {
    pass = v.Mc.pass;
    ok = v.Mc.pass = not expect_violation;
    repr = Mc.repr string_of_int v;
    counterexample;
    findings = Mc.findings ~subject:"fixture" v;
    classes = List.length v.Mc.classes;
    deadlocks = v.Mc.deadlocks;
    stats = v.Mc.stats;
    exhaustive = v.Mc.exhaustive;
  }

let fixture ~name ~descr ~expect_violation ?(max_states = 100_000)
    ?(max_minimize = 1000) ?fingerprints ?properties ?require_confluence sys =
  let run ?backend ?pool ?max_states:ms () =
    let max_states = Option.value ms ~default:max_states in
    Mc.check ?backend ?pool ~max_states ~max_minimize ?fingerprints
      ?properties ?require_confluence sys
    |> result ~expect_violation
  in
  { name; descr; expect_violation; default_max_states = max_states; run }

(* --- the mediator game Γd at the smallest interesting size ------------ *)

let e1_small_sys () =
  Mc.system ~mediator:3 ~relaxed:true (fun () ->
      Protocol.game_processes ~spec:(Spec.coordination ~n:3)
        ~types:[| 0; 0; 0 |] ~rounds:1 ~wait_for:3
        ~rng:(Random.State.make [| 0xe1; 3 |])
        ~wills:(fun _ -> None) ())

(* Lemma 6.10's atomicity rule: the mediator sends the STOP batch in one
   activation, so a relaxed environment may cut the history before it or
   after it but never through it — every stopped configuration has
   either no mover or all three. *)
let batch_atomicity : int Mc.property =
  Mc.property "stop-batch-atomicity" (fun ~stopped:_ ~willed:_ o ->
      let movers = ref 0 in
      for i = 0 to 2 do
        if o.Sim.Types.moves.(i) <> None then incr movers
      done;
      if !movers = 0 || !movers = 3 then None
      else
        Some
          (Printf.sprintf "%d of 3 players moved: the STOP batch was split"
             !movers))

(* --- the Section 6.4 counterexample ---------------------------------- *)

(* Every maximal history of the all-honest naive protocol ends with every
   player deciding; the coalition breaks exactly this. *)
let all_decide : int Mc.property =
  Mc.property "all-decide" (fun ~stopped ~willed:_ o ->
      if stopped then None
      else
        let idle = ref [] in
        Array.iteri
          (fun pid m -> if m = None then idle := pid :: !idle)
          o.Sim.Types.moves;
        match !idle with
        | [] -> None
        | pids ->
            Some
              (Printf.sprintf "players %s never decided"
                 (String.concat "," (List.map string_of_int (List.rev pids)))))

let pitfall_sys ~coalition ~seed () =
  (* the smallest §6.4 instance: n > 3k forces n = 4 at k = 1, and the
     coalition needs one even- and one odd-index player *)
  let n = 4 and k = 1 in
  Mc.system (fun () ->
      let cfg = Pitfall.config ~n ~k ~coin_seed:(seed * 131) in
      Array.init n (fun me ->
          match coalition with
          | Some (a, b) when me = a ->
              Adversary.Rational.pitfall_coalition cfg ~partner:b ~me ~type_:0
                ~seed
          | Some (a, b) when me = b ->
              Adversary.Rational.pitfall_coalition cfg ~partner:a ~me ~type_:0
                ~seed
          | _ -> Pitfall.honest_player ~config:cfg ~me ~type_:0 ~seed))

(* A coin seed under which the shared bit decodes to b = 0, so the
   coalition refuses phase 1 on every schedule: the attack is
   deterministic once the seed is fixed. *)
let pitfall_seed = 1

(* --- catalog ---------------------------------------------------------- *)

let fixtures =
  [
    fixture ~name:"quorum-pass"
      ~descr:"majority vote, n=4, 1 forged zero per honest: validity holds"
      ~expect_violation:false
      ~properties:[ Fx.quorum_validity ]
      (Mc.system (Fx.quorum_vote ~n:4 ~zeros:1));
    fixture ~name:"quorum-violation"
      ~descr:"majority vote, n=3, 2 forged zeros: validity breaks, minimized"
      ~expect_violation:true
      ~properties:[ Fx.quorum_validity ]
      (Mc.system (Fx.quorum_vote ~n:3 ~zeros:2));
    fixture ~name:"pairs-ratio"
      ~descr:"3 independent pairs: the partial-order-reduction showcase"
      ~expect_violation:false
      (Mc.system (Fx.pairs ~m:3));
    fixture ~name:"e1-small"
      ~descr:"mediator game (coordination, n=3, relaxed): STOP batch atomicity"
      ~expect_violation:false ~max_states:20_000
      ~properties:[ batch_atomicity ]
      (e1_small_sys ());
    fixture ~name:"pitfall64"
      ~descr:"section 6.4 coalition vs the naive protocol: stall found, capped"
      ~expect_violation:true ~max_states:4 ~max_minimize:24
      ~fingerprints:false (* ~4k-delivery MPC histories: per-step hashing
                             would dominate and the cap is tiny anyway *)
      ~properties:[ all_decide ]
      (pitfall_sys ~coalition:(Some (0, 1)) ~seed:pitfall_seed ());
  ]

let find name = List.find_opt (fun f -> f.name = name) fixtures

let names = List.map (fun f -> f.name) fixtures

(* The acceptance-criterion measurement (bench model_check section): how
   many complete replays DPOR needs on the pairs fixture against the
   naive enumeration capped at [naive_cap] histories. *)
let reduction ?pool ?(naive_cap = 50_000) () =
  let sys = Mc.system (Fx.pairs ~m:3) in
  let d = Mc.check ~backend:Mc.Dpor ?pool sys in
  let n = Mc.check ~backend:Mc.Naive ~max_states:naive_cap sys in
  (d.Mc.stats.Mc.runs, n.Mc.stats.Mc.runs, n.Mc.stats.Mc.capped)
