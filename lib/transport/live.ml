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

let spawn fb body =
  Effect.Deep.match_with body ()
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

(* Host an ordinary reactive process on a fiber: the fiber loops
   awaiting signals and replays them into the process closures. *)
let reactive_body fb (p : ('m, 'a) Types.process) () =
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
  loop ()

let host fb will =
  {
    Types.start = (fun () -> resume_with fb Start);
    receive = (fun ~src m -> resume_with fb (Msg (src, m)));
    will;
  }

(* ------------------------------------------------------------------ *)
(* A live run: Runner.run over one fiber per player, then every fiber
   still blocked is cancelled. A direct-style program (process_of) runs
   on a fiber of its own, nested inside its host's, which cancelling the
   host cannot reach: when started inside a live run it registers its
   own teardown in [nested]. *)

let nested : (unit -> unit) list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let run ?slot (cfg : ('m, 'a) Runner.config) =
  let fibers = Array.map (fun _ -> make_fiber ()) cfg.Runner.processes in
  let hosted =
    Array.mapi
      (fun i (p : ('m, 'a) Types.process) ->
        let fb = fibers.(i) in
        spawn fb (reactive_body fb p);
        host fb p.Types.will)
      cfg.Runner.processes
  in
  let outer = Domain.DLS.get nested in
  let teardown = ref [] in
  Domain.DLS.set nested (Some teardown);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set nested outer;
      Array.iter cancel_fiber fibers;
      List.iter (fun cancel -> cancel ()) !teardown)
    (fun () -> Runner.run ?slot { cfg with Runner.processes = hosted })

(* ------------------------------------------------------------------ *)
(* Direct-style player programs. *)

type ('m, 'a) api = {
  recv : unit -> Types.pid * 'm;
  send : Types.pid -> 'm -> unit;
  move : 'a -> unit;
}

let process_of ?(will = fun () -> None) program =
  let fb = make_fiber () in
  let buf = ref [] in
  let flush () =
    fb.emitted <- List.rev !buf;
    buf := []
  in
  let recv () =
    flush ();
    Effect.perform Await;
    match fb.signal with
    | Some (Msg (src, m)) ->
        fb.signal <- None;
        (src, m)
    | Some Start | None ->
        (* unreachable under the driver (one start per process, and
           resume always sets a signal); unwind defensively *)
        fb.signal <- None;
        raise Cancelled
  in
  let api =
    {
      recv;
      send = (fun dst m -> buf := Types.Send (dst, m) :: !buf);
      move = (fun a -> buf := Types.Move a :: !buf);
    }
  in
  let body () =
    (* the first signal is always the start activation *)
    Effect.perform Await;
    fb.signal <- None;
    program api;
    buf := Types.Halt :: !buf;
    flush ()
  in
  spawn fb body;
  let p = host fb will in
  {
    p with
    Types.start =
      (fun () ->
        (match Domain.DLS.get nested with
        | Some teardown -> teardown := (fun () -> cancel_fiber fb) :: !teardown
        | None -> ());
        p.Types.start ());
  }
