(* The live backend. Players are effects fibers; a live run is
   Runner.run over the fiber-hosted processes, the simulator's own loop,
   so a live history is the simulator's history by construction. *)

module Runner = Sim.Runner
module Types = Sim.Types

exception Cancelled

(* ------------------------------------------------------------------ *)
(* Fiber substrate: a player suspended on [Await] until the arbiter
   hands it a signal. One-shot continuations; single-domain use. *)

type _ Effect.t += Await : unit Effect.t

type 'm signal = Start | Msg of Types.pid * 'm

type ('m, 'a) fiber = {
  mutable signal : 'm signal option;
  mutable emitted : ('m, 'a) Types.effect list;
  mutable resume : (unit, unit) Effect.Deep.continuation option;
}

let make_fiber () = { signal = None; emitted = []; resume = None }

(* Host an ordinary reactive process on a fiber: the fiber loops
   awaiting signals and replays them into the process closures. *)
let spawn fb (p : ('m, 'a) Types.process) =
  let rec loop () =
    Effect.perform Await;
    (match fb.signal with
    | None -> ()
    | Some s ->
        fb.signal <- None;
        fb.emitted <-
          (match s with
          | Start -> p.Types.start ()
          | Msg (src, m) -> p.Types.receive ~src m));
    loop ()
  in
  Effect.Deep.match_with loop ()
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = (fun e -> match e with Cancelled -> () | e -> raise e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Await ->
              Some
                (fun (k : (b, unit) Effect.Deep.continuation) -> fb.resume <- Some k)
          | _ -> None);
    }

(* Hand the fiber a signal and collect the effects it emitted before
   suspending again. A fiber that already terminated emits nothing —
   the same shape as a closure process that returns []. *)
let resume_with fb s =
  match fb.resume with
  | None -> []
  | Some k ->
      fb.resume <- None;
      fb.signal <- Some s;
      fb.emitted <- [];
      Effect.Deep.continue k ();
      let out = fb.emitted in
      fb.emitted <- [];
      out

let cancel_fiber fb =
  match fb.resume with
  | None -> ()
  | Some k ->
      fb.resume <- None;
      Effect.Deep.discontinue k Cancelled

(* ------------------------------------------------------------------ *)
(* A live run: Runner.run over one fiber per player, then every fiber
   still blocked is cancelled. *)

let run ?slot (cfg : ('m, 'a) Runner.config) =
  let fibers = Array.map (fun _ -> make_fiber ()) cfg.Runner.processes in
  let hosted =
    Array.mapi
      (fun i (p : ('m, 'a) Types.process) ->
        let fb = fibers.(i) in
        spawn fb p;
        {
          Types.start = (fun () -> resume_with fb Start);
          receive = (fun ~src m -> resume_with fb (Msg (src, m)));
          will = p.Types.will;
        })
      cfg.Runner.processes
  in
  Fun.protect
    ~finally:(fun () -> Array.iter cancel_fiber fibers)
    (fun () -> Runner.run ?slot { cfg with Runner.processes = hosted })
