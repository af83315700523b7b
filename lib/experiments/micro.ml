(* S1-S5 — substrate micro-benchmarks (Bechamel): field ops, Shamir +
   Berlekamp-Welch, binary agreement, AVSS, one full MPC evaluation, and
   one full cheap-talk compilation run. These support the experiments
   (performance baselines), they are not paper claims. *)

open Bechamel
open Toolkit

module Gf = Field.Gf

let rng = Random.State.make [| 2718 |]

let bench_gf_mul =
  let a = Gf.of_int 123456789 and b = Gf.of_int 987654321 in
  Test.make ~name:"gf/mul" (Staged.stage (fun () -> ignore (Gf.mul a b)))

let bench_gf_inv =
  let a = Gf.of_int 123456789 in
  Test.make ~name:"gf/inv" (Staged.stage (fun () -> ignore (Gf.inv a)))

let bench_shamir_share =
  Test.make ~name:"shamir/share n=7 t=2"
    (Staged.stage (fun () -> ignore (Shamir.share rng ~n:7 ~t:2 ~secret:(Gf.of_int 42))))

let bench_shamir_robust =
  let shares = Shamir.share (Random.State.make [| 3 |]) ~n:9 ~t:2 ~secret:(Gf.of_int 7) in
  let tampered = Array.copy shares in
  tampered.(1) <- { tampered.(1) with Shamir.value = Gf.add tampered.(1).Shamir.value Gf.one };
  tampered.(5) <- { tampered.(5) with Shamir.value = Gf.add tampered.(5).Shamir.value Gf.one };
  let lst = Array.to_list tampered in
  Test.make ~name:"shamir/BW-decode n=9 e=2"
    (Staged.stage (fun () -> ignore (Shamir.reconstruct_robust ~t:2 ~max_errors:2 lst)))

(* --- cached vs naive kernel pairs ---------------------------------------
   Each optimised kernel is benchmarked against the pre-optimisation
   reference in {!Shamir.Ref} (or the raw field/linalg primitive it
   replaced), over identical inputs. The differential qcheck tests prove
   the pairs agree; these rows measure what the agreement buys. *)

let pair_shares =
  Array.to_list
    (Shamir.share (Random.State.make [| 11 |]) ~n:16 ~t:5 ~secret:(Gf.of_int 123))

let bench_reconstruct_warm =
  (* the first run warms the per-domain Lagrange cache; every measured
     run after that is the memoised path *)
  Test.make ~name:"shamir/reconstruct warm-cache n=16 t=5"
    (Staged.stage (fun () -> ignore (Shamir.reconstruct ~t:5 pair_shares)))

let bench_reconstruct_naive =
  Test.make ~name:"shamir/reconstruct naive n=16 t=5"
    (Staged.stage (fun () -> ignore (Shamir.Ref.reconstruct ~t:5 pair_shares)))

let bench_bw_naive =
  let shares = Shamir.share (Random.State.make [| 3 |]) ~n:9 ~t:2 ~secret:(Gf.of_int 7) in
  let tampered = Array.copy shares in
  tampered.(1) <- { tampered.(1) with Shamir.value = Gf.add tampered.(1).Shamir.value Gf.one };
  tampered.(5) <- { tampered.(5) with Shamir.value = Gf.add tampered.(5).Shamir.value Gf.one };
  let lst = Array.to_list tampered in
  Test.make ~name:"shamir/BW-decode naive n=9 e=2"
    (Staged.stage (fun () -> ignore (Shamir.Ref.reconstruct_robust ~t:2 ~max_errors:2 lst)))

let lagrange_idx = List.init 8 (fun i -> (i * 3) + 1)

let bench_lagrange_warm =
  Test.make ~name:"shamir/lagrange-at-zero warm k=8"
    (Staged.stage (fun () -> ignore (Shamir.lagrange_at_zero lagrange_idx)))

let bench_lagrange_cold =
  Test.make ~name:"shamir/lagrange-at-zero cold k=8"
    (Staged.stage (fun () ->
         Shamir.clear_caches ();
         ignore (Shamir.lagrange_at_zero lagrange_idx)))

let inv_inputs = Array.init 64 (fun i -> Gf.of_int ((i * 7919) + 13))

let bench_batch_inv =
  let dst = Array.make 64 Gf.zero in
  Test.make ~name:"gf/batch-inv n=64"
    (Staged.stage (fun () -> Gf.batch_inv_into dst inv_inputs))

let bench_inv_each =
  Test.make ~name:"gf/inv-euclid x64"
    (Staged.stage (fun () ->
         for i = 0 to 63 do
           ignore (Gf.inv_euclid inv_inputs.(i))
         done))

(* A 12x12 Berlekamp-Welch-shaped system (full rank). The scratch path
   refills reusable buffers then eliminates in place; the copying path
   allocates and copies the whole system every solve (the old kernel). *)
let solve_dim = 12

let solve_m, solve_v =
  let st = Random.State.make [| 17 |] in
  let m =
    Array.init solve_dim (fun i ->
        Array.init solve_dim (fun j ->
            (* Vandermonde-style rows: x_i^j, guaranteed invertible *)
            let x = Gf.of_int (i + 2) in
            let rec pow acc k = if k = 0 then acc else pow (Gf.mul acc x) (k - 1) in
            pow Gf.one j))
  in
  let v = Array.init solve_dim (fun _ -> Gf.random st) in
  (m, v)

let bench_solve_scratch =
  let scratch = Field.Linalg.Scratch.create () in
  Test.make ~name:"linalg/solve scratch 12x12"
    (Staged.stage (fun () ->
         Field.Linalg.Scratch.prepare scratch ~rows:solve_dim ~cols:solve_dim;
         let m = Field.Linalg.Scratch.matrix scratch in
         let v = Field.Linalg.Scratch.rhs scratch in
         for i = 0 to solve_dim - 1 do
           Array.blit solve_m.(i) 0 m.(i) 0 solve_dim;
           v.(i) <- solve_v.(i)
         done;
         ignore (Field.Linalg.Scratch.solve scratch ~rows:solve_dim ~cols:solve_dim)))

let bench_solve_copying =
  Test.make ~name:"linalg/solve copying 12x12"
    (Staged.stage (fun () -> ignore (Field.Linalg.solve solve_m solve_v)))

let run_sim procs sched = ignore (Sim.Runner.run (Sim.Runner.config ~scheduler:sched procs))

let bench_aba =
  let make () =
    let n = 4 and f = 1 in
    Array.init n (fun me ->
        let session =
          Agreement.Aba.create ~n ~f ~me ~coin:(Agreement.Coin.common ~seed:1 ~instance:0)
        in
        let emit (r : Agreement.Aba.reaction) =
          List.map (fun (d, m) -> Sim.Types.Send (d, m)) r.Agreement.Aba.sends
        in
        Sim.Types.
          {
            start = (fun () -> emit (Agreement.Aba.propose session true));
            receive = (fun ~src m -> emit (Agreement.Aba.handle session ~src m));
            will = (fun () -> None);
          })
  in
  Test.make ~name:"aba/unanimous n=4"
    (Staged.stage (fun () -> run_sim (make ()) (Sim.Scheduler.fifo ())))

let bench_avss =
  let make () =
    let n = 4 and t = 1 in
    Array.init n (fun me ->
        let session = Mpc.Avss.create ~n ~degree:t ~faults:t ~me ~dealer:0 in
        let local_rng = Random.State.make [| 5; me |] in
        let emit (r : Mpc.Avss.reaction) =
          List.map (fun (d, m) -> Sim.Types.Send (d, m)) r.Mpc.Avss.sends
        in
        Sim.Types.
          {
            start =
              (fun () ->
                if me = 0 then emit (Mpc.Avss.deal session local_rng ~secret:(Gf.of_int 9))
                else []);
            receive = (fun ~src m -> emit (Mpc.Avss.handle session ~src m));
            will = (fun () -> None);
          })
  in
  Test.make ~name:"avss/deal+accept n=4"
    (Staged.stage (fun () -> run_sim (make ()) (Sim.Scheduler.fifo ())))

let bench_mpc_sum =
  let circuit = Circuit.sum ~n_inputs:4 in
  let make () =
    Array.init 4 (fun me ->
        let e =
          Mpc.Engine.create ~n:4 ~degree:1 ~faults:1 ~me ~circuit ~input:(Gf.of_int me)
            ~rng:(Random.State.make [| 7; me |])
            ~coin_seed:3 ()
        in
        let emit (r : Mpc.Engine.reaction) =
          List.map (fun (d, m) -> Sim.Types.Send (d, m)) r.Mpc.Engine.sends
        in
        Sim.Types.
          {
            start = (fun () -> emit (Mpc.Engine.start e));
            receive = (fun ~src m -> emit (Mpc.Engine.handle e ~src m));
            will = (fun () -> None);
          })
  in
  Test.make ~name:"mpc/sum-circuit n=4"
    (Staged.stage (fun () -> run_sim (make ()) (Sim.Scheduler.fifo ())))

let bench_cheaptalk =
  let spec = Mediator.Spec.coordination ~n:5 in
  let plan = Cheaptalk.Compile.plan_exn ~spec ~theorem:Cheaptalk.Compile.T41 ~k:0 ~t:1 () in
  let seed = ref 0 in
  Test.make ~name:"cheaptalk/coordination n=5 (full run)"
    (Staged.stage (fun () ->
         incr seed;
         ignore
           (Cheaptalk.Verify.run_once plan ~types:[| 0; 0; 0; 0; 0 |]
              ~scheduler:(Sim.Scheduler.fifo ()) ~seed:!seed)))

let all_tests =
  [
    bench_gf_mul;
    bench_gf_inv;
    bench_batch_inv;
    bench_inv_each;
    bench_solve_scratch;
    bench_solve_copying;
    bench_shamir_share;
    bench_shamir_robust;
    bench_bw_naive;
    bench_reconstruct_warm;
    bench_reconstruct_naive;
    bench_lagrange_warm;
    bench_lagrange_cold;
    bench_aba;
    bench_avss;
    bench_mpc_sum;
    bench_cheaptalk;
  ]

let pp_ns est =
  let v, unit =
    if est > 1e9 then (est /. 1e9, "s")
    else if est > 1e6 then (est /. 1e6, "ms")
    else if est > 1e3 then (est /. 1e3, "us")
    else (est, "ns")
  in
  Printf.sprintf "%.2f %s" v unit

(* Returns (benchmark name, estimated ns/run) in declaration order, so the
   bench driver can export the estimates to JSON and the perf gate can
   diff them against a committed baseline. *)
let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Printf.printf "\n=== S1-S5: substrate micro-benchmarks (Bechamel) ===\n\n";
  Printf.printf "%-40s %16s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 58 '-');
  let measurements = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              measurements := (name, est) :: !measurements;
              Printf.printf "%-40s %16s\n" name (pp_ns est)
          | _ -> Printf.printf "%-40s %16s\n" name "n/a")
        analyzed)
    all_tests;
  let ms = List.rev !measurements in
  (* headline ratios for the kernel pairs *)
  let ratio slow fast =
    match (List.assoc_opt slow ms, List.assoc_opt fast ms) with
    | Some s, Some f when f > 0.0 ->
        Printf.printf "  %-52s %6.1fx\n" (Printf.sprintf "%s vs %s" fast slow) (s /. f)
    | _ -> ()
  in
  Printf.printf "\nkernel speedups (naive / optimised):\n";
  ratio "shamir/reconstruct naive n=16 t=5" "shamir/reconstruct warm-cache n=16 t=5";
  ratio "shamir/BW-decode naive n=9 e=2" "shamir/BW-decode n=9 e=2";
  ratio "shamir/lagrange-at-zero cold k=8" "shamir/lagrange-at-zero warm k=8";
  ratio "gf/inv-euclid x64" "gf/batch-inv n=64";
  ratio "linalg/solve copying 12x12" "linalg/solve scratch 12x12";
  ms
