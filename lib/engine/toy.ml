module Types = Sim.Types

(* seed/pid mixer for the votes: cheap, deterministic, spreads low
   seeds (the engine numbers sessions densely from 0) *)
let vote ~seed ~me =
  let h = (seed * 0x9E3779B9) lxor (me * 0x85EBCA6B) in
  let h = h lxor (h lsr 13) in
  (h land max_int) mod 5

let player ~n ~me ~vote:v =
  let got = ref 0 in
  let sum = ref v in
  Types.
    {
      start =
        (fun () ->
          let effs = ref [] in
          for p = n - 1 downto 0 do
            if p <> me then effs := Send (p, v) :: !effs
          done;
          if n = 1 then [ Move (v mod 7); Halt ] else !effs);
      receive =
        (fun ~src:_ w ->
          got := !got + 1;
          sum := !sum + w;
          if !got = n - 1 then [ Move (!sum mod 7); Halt ] else []);
      will = (fun () -> None);
    }

let config ?(n = 4) ~seed () =
  if n < 1 then invalid_arg (Printf.sprintf "Toy.config: n must be > 0 (got %d)" n);
  let procs = Array.init n (fun me -> player ~n ~me ~vote:(vote ~seed ~me)) in
  Sim.Runner.config ~scheduler:(Sim.Scheduler.random_seeded seed) procs

let profile o = Transport.Differential.profile ~show:string_of_int o
