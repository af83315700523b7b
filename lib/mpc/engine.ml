module Gf = Field.Gf
module Aba = Agreement.Aba
module Coin = Agreement.Coin

type session_id =
  | Input_share of int
  | Rand_share of int * int
  | Mul_share of int * int

type vote_id =
  | Input_vote of int
  | Mul_vote of int * int

type msg =
  | Share_msg of session_id * Avss.msg
  | Vote_msg of vote_id * Aba.msg
  | Output_msg of int * Gf.t (* stage, share of the recipient's stage output *)

let pp_session fmt = function
  | Input_share d -> Format.fprintf fmt "input[%d]" d
  | Rand_share (d, k) -> Format.fprintf fmt "rand[%d,%d]" d k
  | Mul_share (g, d) -> Format.fprintf fmt "mul[%d,%d]" g d

let pp_vote fmt = function
  | Input_vote d -> Format.fprintf fmt "vote-in[%d]" d
  | Mul_vote (g, d) -> Format.fprintf fmt "vote-mul[%d,%d]" g d

let pp_msg fmt = function
  | Share_msg (sid, m) -> Format.fprintf fmt "%a:%a" pp_session sid Avss.pp_msg m
  | Vote_msg (vid, m) -> Format.fprintf fmt "%a:%a" pp_vote vid Aba.pp_msg m
  | Output_msg (stage, v) -> Format.fprintf fmt "output-share(%d,%a)" stage Gf.pp v

type mul_state = {
  mutable started : bool;
  mutable reduced : bool;
}

(* All per-session/per-vote state lives in dense arrays: session and vote
   ids enumerate a fixed finite space (n dealers x {input, randomness
   slots, multiplication gates}), so each id maps to a stable small
   integer and the old polymorphic-variant-keyed Hashtbls — whose
   caml_hash + structural-compare walks dominated the settle-loop
   profile — become O(1) array reads. Malformed ids (out-of-range dealer,
   slot, or gate) map to index -1 and their messages are ignored. *)
type t = {
  n : int;
  deg : int; (* sharing degree (privacy threshold) *)
  faults : int; (* Byzantine fault bound *)
  me : int;
  circuit : Circuit.t;
  input : Gf.t;
  rng : Random.State.t;
  coin_seed : int;
  mul_pos : int array; (* gate index -> dense mul-gate position, -1 otherwise *)
  sessions : Avss.t option array; (* session_index-indexed, created on demand *)
  votes : Aba.t option array; (* vote_index-indexed, created on demand *)
  proposed : bool array; (* vote_index-indexed *)
  mutable core : int list option;
  rand_shares : Gf.t option array;
  gate_shares : Gf.t option array;
  muls : mul_state array; (* mul_pos-indexed *)
  mul_gate_ids : int list;
  stages : int array array; (* per stage: one output gate per player *)
  stage_sent : bool array;
  output_points : Gf.t option array; (* stage*n + src -> share of MY stage output *)
  stage_npoints : int array;
  stage_results : Gf.t option array;
  mutable result : Gf.t option;
}

type reaction = {
  sends : (int * msg) list;
  result : Gf.t option;
}

let create ?stages ~n ~degree ~faults ~me ~circuit ~input ~rng ~coin_seed () =
  if n <= 3 * faults then invalid_arg "Engine.create: need n > 3*faults";
  if n < degree + (2 * faults) + 1 then
    invalid_arg "Engine.create: need n >= degree + 2*faults + 1";
  if Circuit.mul_count circuit > 0 && n < (2 * degree) + faults + 1 then
    invalid_arg "Engine.create: multiplication needs n >= 2*degree + faults + 1";
  if circuit.Circuit.n_inputs <> n then invalid_arg "Engine.create: circuit needs n inputs";
  let stages = match stages with None -> [| circuit.Circuit.outputs |] | Some s -> s in
  if Array.length stages = 0 then invalid_arg "Engine.create: need at least one stage";
  Array.iter
    (fun st ->
      if Array.length st <> n then invalid_arg "Engine.create: each stage needs n outputs";
      Array.iter
        (fun g ->
          if g < 0 || g >= Array.length circuit.Circuit.gates then
            invalid_arg "Engine.create: stage references missing gate")
        st)
    stages;
  let n_gates = Array.length circuit.Circuit.gates in
  let mul_pos = Array.make n_gates (-1) in
  let n_mul = ref 0 in
  for i = 0 to n_gates - 1 do
    match circuit.Circuit.gates.(i) with
    | Circuit.Mul _ ->
        mul_pos.(i) <- !n_mul;
        incr n_mul
    | _ -> ()
  done;
  let n_mul = !n_mul in
  let n_random = circuit.Circuit.n_random in
  {
    n;
    deg = degree;
    faults;
    me;
    circuit;
    input;
    rng;
    coin_seed;
    mul_pos;
    sessions = Array.make (n * (1 + n_random + n_mul)) None;
    votes = Array.make (n * (1 + n_mul)) None;
    proposed = Array.make (n * (1 + n_mul)) false;
    core = None;
    rand_shares = Array.make n_random None;
    gate_shares = Array.make n_gates None;
    muls = Array.init n_mul (fun _ -> { started = false; reduced = false });
    mul_gate_ids =
      List.filter
        (fun i -> mul_pos.(i) >= 0)
        (List.init n_gates (fun i -> i));
    stages;
    stage_sent = Array.make (Array.length stages) false;
    output_points = Array.make (Array.length stages * n) None;
    stage_npoints = Array.make (Array.length stages) 0;
    stage_results = Array.make (Array.length stages) None;
    result = None;
  }

let dealer_of = function
  | Input_share d | Rand_share (d, _) | Mul_share (_, d) -> d

(* Dense index of a session id, -1 when malformed. Layout:
   [0, n)                      Input_share d
   [n, n + k_max*n)            Rand_share (d, k) at n + k*n + d
   [n*(1+k_max), ...)          Mul_share (g, d) at n*(1+k_max) + mul_pos(g)*n + d *)
let session_index e = function
  | Input_share d -> if d < 0 || d >= e.n then -1 else d
  | Rand_share (d, k) ->
      if d < 0 || d >= e.n || k < 0 || k >= e.circuit.Circuit.n_random then -1
      else e.n + (k * e.n) + d
  | Mul_share (g, d) ->
      if
        d < 0 || d >= e.n || g < 0
        || g >= Array.length e.mul_pos
        || e.mul_pos.(g) < 0
      then -1
      else (e.n * (1 + e.circuit.Circuit.n_random)) + (e.mul_pos.(g) * e.n) + d

let vote_index e = function
  | Input_vote d -> if d < 0 || d >= e.n then -1 else d
  | Mul_vote (g, d) ->
      if
        d < 0 || d >= e.n || g < 0
        || g >= Array.length e.mul_pos
        || e.mul_pos.(g) < 0
      then -1
      else e.n + (e.mul_pos.(g) * e.n) + d

(* A stable per-vote instance number so every player derives the same
   common coin for the same agreement. *)
let instance_of e = function
  | Input_vote d -> d
  | Mul_vote (g, d) -> e.n + (g * e.n) + d

(* [session]/[vote] create on demand; callers pass well-formed ids (the
   message path validates the index first). *)
let session e sid =
  let i = session_index e sid in
  match e.sessions.(i) with
  | Some s -> s
  | None ->
      let s =
        Avss.create ~n:e.n ~degree:e.deg ~faults:e.faults ~me:e.me ~dealer:(dealer_of sid)
      in
      e.sessions.(i) <- Some s;
      s

let vote e vid =
  let i = vote_index e vid in
  match e.votes.(i) with
  | Some v -> v
  | None ->
      let coin = Coin.optimistic ~seed:e.coin_seed ~instance:(instance_of e vid) in
      let v = Aba.create ~n:e.n ~f:e.faults ~me:e.me ~coin in
      e.votes.(i) <- Some v;
      v

let wrap_share sid sends = List.map (fun (dst, m) -> (dst, Share_msg (sid, m))) sends
let wrap_vote vid sends = List.map (fun (dst, m) -> (dst, Vote_msg (vid, m))) sends

let propose e vid value =
  let i = vote_index e vid in
  if e.proposed.(i) then []
  else begin
    e.proposed.(i) <- true;
    wrap_vote vid (Aba.propose (vote e vid) value).Aba.sends
  end

let decision_at e i = match e.votes.(i) with None -> None | Some v -> Aba.decision v

let session_accepted_at e i =
  match e.sessions.(i) with None -> false | Some s -> Avss.is_accepted s

let session_share_at e i =
  match e.sessions.(i) with None -> None | Some s -> Avss.share s

let session_share e sid = session_share_at e (session_index e sid)

(* Dealer d's input bundle: its input sharing plus every randomness
   contribution (contiguous session indices d, n+d, 2n+d, ...). *)
let bundle_accepted e d =
  let ok = ref (session_accepted_at e d) in
  let k = ref 0 in
  while !ok && !k < e.circuit.Circuit.n_random do
    if not (session_accepted_at e (e.n + (!k * e.n) + d)) then ok := false;
    incr k
  done;
  !ok

let mul_gates e = e.mul_gate_ids
let mul_state e g = e.muls.(e.mul_pos.(g))

(* --- the cascade: run all progress rules to a local fixpoint --- *)

(* Input votes occupy vote indices [0, n); gate g's votes occupy the
   contiguous block [n + mul_pos(g)*n, n + (mul_pos(g)+1)*n). *)
let count_yes_block e ~base =
  let acc = ref 0 in
  for d = 0 to e.n - 1 do
    if decision_at e (base + d) = Some true then incr acc
  done;
  !acc

let all_decided_block e ~base =
  let ok = ref true in
  for d = 0 to e.n - 1 do
    if Option.is_none (decision_at e (base + d)) then ok := false
  done;
  !ok

let settle e =
  let chunks = ref [] in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    let step sends =
      match sends with
      | [] -> ()
      | _ ->
          progressed := true;
          chunks := sends :: !chunks
    in

    (* Propose YES for input dealers whose whole bundle we accepted. *)
    for d = 0 to e.n - 1 do
      if (not e.proposed.(d)) && bundle_accepted e d then
        step (propose e (Input_vote d) true)
    done;

    (* Input close-out: n-f accepted dealers seen -> vote NO on the rest. *)
    if count_yes_block e ~base:0 >= e.n - e.faults then
      for d = 0 to e.n - 1 do
        if not e.proposed.(d) then step (propose e (Input_vote d) false)
      done;

    (* Input completion: all votes decided and accepted bundles in hand. *)
    (match e.core with
    | Some _ -> ()
    | None ->
        if all_decided_block e ~base:0 then begin
          let yes =
            List.filter (fun d -> decision_at e d = Some true)
              (List.init e.n (fun d -> d))
          in
          if List.for_all (bundle_accepted e) yes then begin
            e.core <- Some yes;
            (* Randomness wires: sum of the core's contributions. *)
            for k = 0 to e.circuit.Circuit.n_random - 1 do
              let sum =
                List.fold_left
                  (fun s d ->
                    match session_share_at e (e.n + (k * e.n) + d) with
                    | Some v -> Gf.add s v
                    | None -> s)
                  Gf.zero yes
              in
              e.rand_shares.(k) <- Some sum
            done;
            progressed := true
          end
        end);

    (* Gate evaluation (only once the core is known). *)
    (match e.core with
    | None -> ()
    | Some core ->
        Array.iteri
          (fun gi gate ->
            if Option.is_none e.gate_shares.(gi) then begin
              let value v = e.gate_shares.(gi) <- Some v; progressed := true in
              let ready j = e.gate_shares.(j) in
              match gate with
              | Circuit.Input d ->
                  if List.mem d core then begin
                    match session_share e (Input_share d) with
                    | Some v -> value v
                    | None -> ()
                  end
                  else value Gf.zero (* excluded dealer: default input 0 *)
              | Circuit.Random k -> (
                  match e.rand_shares.(k) with Some v -> value v | None -> ())
              | Circuit.Const c ->
                  (* constants are a valid degree-0 sharing of themselves *)
                  value c
              | Circuit.Add (a, b) -> (
                  match (ready a, ready b) with
                  | Some va, Some vb -> value (Gf.add va vb)
                  | _ -> ())
              | Circuit.Sub (a, b) -> (
                  match (ready a, ready b) with
                  | Some va, Some vb -> value (Gf.sub va vb)
                  | _ -> ())
              | Circuit.Scale (c, a) -> (
                  match ready a with Some va -> value (Gf.mul c va) | None -> ())
              | Circuit.Mul (a, b) -> (
                  let st = mul_state e gi in
                  match (ready a, ready b) with
                  | Some va, Some vb ->
                      if not st.started then begin
                        st.started <- true;
                        (* Reshare our degree-2t product share. *)
                        let sid = Mul_share (gi, e.me) in
                        let r =
                          Avss.deal (session e sid) e.rng ~secret:(Gf.mul va vb)
                        in
                        step (wrap_share sid r.Avss.sends)
                      end
                  | _ -> ())
            end)
          e.circuit.Circuit.gates;

        (* Multiplication reductions in flight. *)
        List.iter
          (fun gi ->
            let st = mul_state e gi in
            if st.started && not st.reduced then begin
              let vote_base = e.n + (e.mul_pos.(gi) * e.n) in
              let share_base =
                (e.n * (1 + e.circuit.Circuit.n_random)) + (e.mul_pos.(gi) * e.n)
              in
              (* Vote YES for contributors whose resharing we accepted. *)
              for d = 0 to e.n - 1 do
                if (not e.proposed.(vote_base + d)) && session_accepted_at e (share_base + d)
                then step (propose e (Mul_vote (gi, d)) true)
              done;
              (* Close-out once enough contributors for a degree-2d
                 interpolation are in. *)
              if count_yes_block e ~base:vote_base >= (2 * e.deg) + 1 then
                for d = 0 to e.n - 1 do
                  if not e.proposed.(vote_base + d) then
                    step (propose e (Mul_vote (gi, d)) false)
                done;
              (* Reduction: all votes decided, all YES resharings in hand. *)
              if all_decided_block e ~base:vote_base then begin
                let contributors =
                  List.filter
                    (fun d -> decision_at e (vote_base + d) = Some true)
                    (List.init e.n (fun d -> d))
                in
                if
                  List.length contributors >= (2 * e.deg) + 1
                  && List.for_all
                       (fun d -> session_accepted_at e (share_base + d))
                       contributors
                then begin
                  let lambda =
                    Shamir.lagrange_at_zero (List.map (fun d -> d + 1) contributors)
                  in
                  let share =
                    List.fold_left
                      (fun s d ->
                        let coeff = List.assoc (d + 1) lambda in
                        match session_share_at e (share_base + d) with
                        | Some v -> Gf.add s (Gf.mul coeff v)
                        | None -> s)
                      Gf.zero contributors
                  in
                  st.reduced <- true;
                  e.gate_shares.(gi) <- Some share;
                  progressed := true
                end
              end
            end)
          (mul_gates e));

    (* Output dispatch, stage by stage: stage s output shares go out only
       once our own stage s-1 value is reconstructed (the mediator's s-th
       message follows its (s-1)-th). *)
    Array.iteri
      (fun si outs ->
        if
          (not e.stage_sent.(si))
          && (si = 0 || Option.is_some e.stage_results.(si - 1))
          && Array.for_all (fun gi -> Option.is_some e.gate_shares.(gi)) outs
        then begin
          e.stage_sent.(si) <- true;
          let sends =
            List.filter_map
              (fun o ->
                match e.gate_shares.(outs.(o)) with
                | Some v ->
                    if o = e.me then begin
                      if Option.is_none e.output_points.((si * e.n) + e.me) then begin
                        e.output_points.((si * e.n) + e.me) <- Some v;
                        e.stage_npoints.(si) <- e.stage_npoints.(si) + 1
                      end;
                      None
                    end
                    else Some (o, Output_msg (si, v))
                | None -> None)
              (List.init e.n (fun o -> o))
          in
          step sends
        end)
      e.stages;

    (* Stage reconstruction via online error correction. The point arrays
       are only materialised once enough shares are in for the e = 0
       attempt to be admissible (r >= 2t+1). *)
    Array.iteri
      (fun si r ->
        match r with
        | Some _ -> ()
        | None ->
            let npts = e.stage_npoints.(si) in
            if npts >= (2 * e.deg) + 1 then begin
              let idx = Array.make npts 0 in
              let ys = Array.make npts Gf.zero in
              let i = ref 0 in
              for src = 0 to e.n - 1 do
                match e.output_points.((si * e.n) + src) with
                | Some v ->
                    idx.(!i) <- src + 1;
                    ys.(!i) <- v;
                    incr i
                | None -> ()
              done;
              (* Reveals are robust up to the sharing degree: rational
                 players may corrupt their shares even when the fault budget
                 is lower, and n >= 3*degree + 1 regimes must absorb that
                 (Theorem 4.4's cotermination argument). *)
              match
                Shamir.online_decode_arrays ~t:e.deg ~max_faults:(max e.deg e.faults) idx ys
              with
              | Some v ->
                  e.stage_results.(si) <- Some v;
                  if si = Array.length e.stages - 1 then e.result <- Some v;
                  progressed := true
              | None -> ()
            end)
      e.stage_results
  done;
  List.concat (List.rev !chunks)

let start (e : t) =
  let sends = ref [] in
  (* Deal our input and randomness contributions. *)
  let deal sid secret =
    let r = Avss.deal (session e sid) e.rng ~secret in
    sends := !sends @ wrap_share sid r.Avss.sends
  in
  deal (Input_share e.me) e.input;
  for k = 0 to e.circuit.Circuit.n_random - 1 do
    (* Contributions respect the slot's distribution: a mod-m slot sums
       per-player values drawn uniformly in [0, m). *)
    let m = e.circuit.Circuit.random_moduli.(k) in
    let v = if m > 0 then Gf.of_int (Random.State.int e.rng m) else Gf.random e.rng in
    deal (Rand_share (e.me, k)) v
  done;
  let before = e.result in
  let more = settle e in
  let result = match (before, e.result) with None, Some v -> Some v | _ -> None in
  { sends = !sends @ more; result }

(* Settle on change: [handle] runs [settle] only when the message turned
   an AVSS session accepted, turned an ABA vote decided or stored a new
   output point. This is exact. Every rule of [settle] reads only
   acceptance (with the share, which is set at acceptance), decisions,
   output points and state that [settle] writes itself, and its loop
   exits only after a pass that fired nothing, so on return every rule's
   guard is false (the one write such a pass can make, marking a halted
   vote proposed, only disables rules). A message that changes none of
   those three leaves every guard false, and a settle pass would fire
   nothing and return []. [start] still settles unconditionally. *)
let handle (e : t) ~src m =
  let changed = ref false in
  let sends =
    match m with
    | Share_msg (sid, sub) ->
        if session_index e sid < 0 then []
        else begin
          let r = Avss.handle (session e sid) ~src sub in
          changed := Option.is_some r.Avss.accepted;
          wrap_share sid r.Avss.sends
        end
    | Vote_msg (vid, sub) ->
        if vote_index e vid < 0 then []
        else begin
          let r = Aba.handle (vote e vid) ~src sub in
          changed := Option.is_some r.Aba.decided;
          wrap_vote vid r.Aba.sends
        end
    | Output_msg (stage, v) ->
        if
          stage >= 0
          && stage < Array.length e.stages
          && src >= 0 && src < e.n
          && Option.is_none e.output_points.((stage * e.n) + src)
        then begin
          e.output_points.((stage * e.n) + src) <- Some v;
          e.stage_npoints.(stage) <- e.stage_npoints.(stage) + 1;
          changed := true
        end;
        []
  in
  if not !changed then { sends; result = None }
  else begin
    let before = e.result in
    let more = settle e in
    let result = match (before, e.result) with None, Some v -> Some v | _ -> None in
    { sends = sends @ more; result }
  end

let result (e : t) = e.result
let stage_results (e : t) = Array.copy e.stage_results
let input_core e = e.core
