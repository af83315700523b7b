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

(* Sends of one reaction, kept per sub-protocol reaction and wrapped into
   engine messages once, when the reaction's list is assembled. *)
type batch =
  | Shares of session_id * (int * Avss.msg) list
  | Votes of vote_id * (int * Aba.msg) list
  | Outputs of (int * msg) list

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
  mul_gates : int array; (* mul_pos -> gate index *)
  stages : int array array; (* per stage: one output gate per player *)
  stage_sent : bool array;
  output_points : Gf.t option array; (* stage*n + src -> share of MY stage output *)
  stage_npoints : int array;
  stage_results : Gf.t option array;
  mutable result : Gf.t option;
  mutable out : batch list; (* this reaction's sends so far, newest first *)
  mutable fired : int; (* rules fired so far: sends, shares, core, results *)
}

type reaction = {
  sends : (int * msg) list;
  result : Gf.t option;
}

let nothing = { sends = []; result = None }

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
    mul_gates =
      (let g = Array.make n_mul 0 in
       Array.iteri (fun i p -> if p >= 0 then g.(p) <- i) mul_pos;
       g);
    stages;
    stage_sent = Array.make (Array.length stages) false;
    output_points = Array.make (Array.length stages * n) None;
    stage_npoints = Array.make (Array.length stages) 0;
    stage_results = Array.make (Array.length stages) None;
    result = None;
    out = [];
    fired = 0;
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

(* --- the outbox --- *)

let emit e b =
  e.out <- b :: e.out;
  e.fired <- e.fired + 1

let emit_shares e sid = function [] -> () | sends -> emit e (Shares (sid, sends))
let emit_votes e vid = function [] -> () | sends -> emit e (Votes (vid, sends))

let[@tail_mod_cons] rec wrap_shares sid tail = function
  | [] -> tail
  | (dst, m) :: rest -> (dst, Share_msg (sid, m)) :: wrap_shares sid tail rest

let[@tail_mod_cons] rec wrap_votes vid tail = function
  | [] -> tail
  | (dst, m) :: rest -> (dst, Vote_msg (vid, m)) :: wrap_votes vid tail rest

(* The reaction's sends in order, each message wrapped once: the batches
   are taken from the newest back, each onto the list of those after it. *)
let take_outbox e =
  let sends =
    List.fold_left
      (fun tail -> function
        | Shares (sid, sends) -> wrap_shares sid tail sends
        | Votes (vid, sends) -> wrap_votes vid tail sends
        | Outputs sends -> sends @ tail)
      [] e.out
  in
  e.out <- [];
  sends

let propose e vid value =
  let i = vote_index e vid in
  if not e.proposed.(i) then begin
    e.proposed.(i) <- true;
    emit_votes e vid (Aba.propose (vote e vid) value).Aba.sends
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

let mul_state e g = e.muls.(e.mul_pos.(g))
let rec mem_int x = function [] -> false | y :: rest -> Int.equal x y || mem_int x rest

(* --- the cascade: run all progress rules to a local fixpoint --- *)

(* Input votes occupy vote indices [0, n); gate g's votes occupy the
   contiguous block [n + mul_pos(g)*n, n + (mul_pos(g)+1)*n). *)
let count_yes_block e ~base =
  let acc = ref 0 in
  for d = 0 to e.n - 1 do
    match decision_at e (base + d) with Some true -> incr acc | Some false | None -> ()
  done;
  !acc

let all_decided_block e ~base =
  let ok = ref true in
  for d = 0 to e.n - 1 do
    if Option.is_none (decision_at e (base + d)) then ok := false
  done;
  !ok

(* The dealers whose vote in the block decided YES, ascending. *)
let yes_block e ~base =
  let acc = ref [] in
  for d = e.n - 1 downto 0 do
    match decision_at e (base + d) with Some true -> acc := d :: !acc | Some false | None -> ()
  done;
  !acc

let set_share e gi v =
  e.gate_shares.(gi) <- Some v;
  e.fired <- e.fired + 1

(* Gate [gi], whose share is not in yet, once its operands are: linear
   gates are local, a multiplication gate starts its resharing. *)
let eval_gate e core gi =
  match e.circuit.Circuit.gates.(gi) with
  | Circuit.Input d ->
      if mem_int d core then begin
        match session_share e (Input_share d) with Some v -> set_share e gi v | None -> ()
      end
      else set_share e gi Gf.zero (* excluded dealer: default input 0 *)
  | Circuit.Random k -> (
      match e.rand_shares.(k) with Some v -> set_share e gi v | None -> ())
  | Circuit.Const c ->
      (* constants are a valid degree-0 sharing of themselves *)
      set_share e gi c
  | Circuit.Add (a, b) -> (
      match (e.gate_shares.(a), e.gate_shares.(b)) with
      | Some va, Some vb -> set_share e gi (Gf.add va vb)
      | _ -> ())
  | Circuit.Sub (a, b) -> (
      match (e.gate_shares.(a), e.gate_shares.(b)) with
      | Some va, Some vb -> set_share e gi (Gf.sub va vb)
      | _ -> ())
  | Circuit.Scale (c, a) -> (
      match e.gate_shares.(a) with Some va -> set_share e gi (Gf.mul c va) | None -> ())
  | Circuit.Mul (a, b) -> (
      let st = mul_state e gi in
      match (e.gate_shares.(a), e.gate_shares.(b)) with
      | Some va, Some vb when not st.started ->
          st.started <- true;
          (* Reshare our degree-2t product share. *)
          let sid = Mul_share (gi, e.me) in
          emit_shares e sid (Avss.deal (session e sid) e.rng ~secret:(Gf.mul va vb)).Avss.sends
      | _ -> ())

(* A started multiplication gate's agreement on its contributors and its
   degree reduction. *)
let reduce_gate e gi st =
  let vote_base = e.n + (e.mul_pos.(gi) * e.n) in
  let share_base = (e.n * (1 + e.circuit.Circuit.n_random)) + (e.mul_pos.(gi) * e.n) in
  (* Vote YES for contributors whose resharing we accepted. *)
  for d = 0 to e.n - 1 do
    if (not e.proposed.(vote_base + d)) && session_accepted_at e (share_base + d) then
      propose e (Mul_vote (gi, d)) true
  done;
  (* Close-out once enough contributors for a degree-2d interpolation
     are in. *)
  if count_yes_block e ~base:vote_base >= (2 * e.deg) + 1 then
    for d = 0 to e.n - 1 do
      if not e.proposed.(vote_base + d) then propose e (Mul_vote (gi, d)) false
    done;
  (* Reduction: all votes decided, all YES resharings in hand. *)
  if all_decided_block e ~base:vote_base then begin
    let contributors = yes_block e ~base:vote_base in
    if
      List.length contributors >= (2 * e.deg) + 1
      && List.for_all (fun d -> session_accepted_at e (share_base + d)) contributors
    then begin
      (* the coefficients come in the order of the indices given *)
      let lambda = Shamir.lagrange_at_zero (List.map (fun d -> d + 1) contributors) in
      let share =
        List.fold_left2
          (fun s d (_, coeff) ->
            match session_share_at e (share_base + d) with
            | Some v -> Gf.add s (Gf.mul coeff v)
            | None -> s)
          Gf.zero contributors lambda
      in
      st.reduced <- true;
      set_share e gi share
    end
  end

let all_shared e outs =
  let ok = ref true in
  for i = 0 to Array.length outs - 1 do
    if Option.is_none e.gate_shares.(outs.(i)) then ok := false
  done;
  !ok

(* Send stage [si]'s output shares: player o's to player o, ours kept. *)
let dispatch_stage e si =
  let outs = e.stages.(si) in
  e.stage_sent.(si) <- true;
  let sends = ref [] in
  for o = e.n - 1 downto 0 do
    match e.gate_shares.(outs.(o)) with
    | Some v ->
        if o = e.me then begin
          if Option.is_none e.output_points.((si * e.n) + e.me) then begin
            e.output_points.((si * e.n) + e.me) <- Some v;
            e.stage_npoints.(si) <- e.stage_npoints.(si) + 1
          end
        end
        else sends := (o, Output_msg (si, v)) :: !sends
    | None -> ()
  done;
  match !sends with [] -> () | sends -> emit e (Outputs sends)

(* Stage reconstruction via online error correction. The point arrays
   are only materialised once enough shares are in for the e = 0
   attempt to be admissible (r >= 2t+1). *)
let reconstruct_stage e si =
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
    (* Reveals are robust up to the sharing degree: rational players may
       corrupt their shares even when the fault budget is lower, and
       n >= 3*degree + 1 regimes must absorb that (Theorem 4.4's
       cotermination argument). *)
    match Shamir.online_decode_arrays ~t:e.deg ~max_faults:(max e.deg e.faults) idx ys with
    | Some v ->
        e.stage_results.(si) <- Some v;
        if si = Array.length e.stages - 1 then e.result <- Some v;
        e.fired <- e.fired + 1
    | None -> ()
  end

(* One pass of every rule, in a fixed order. *)
let settle_pass e =
  (* Propose YES for input dealers whose whole bundle we accepted. *)
  for d = 0 to e.n - 1 do
    if (not e.proposed.(d)) && bundle_accepted e d then propose e (Input_vote d) true
  done;

  (* Input close-out: n-f accepted dealers seen -> vote NO on the rest. *)
  if count_yes_block e ~base:0 >= e.n - e.faults then
    for d = 0 to e.n - 1 do
      if not e.proposed.(d) then propose e (Input_vote d) false
    done;

  (* Input completion: all votes decided and accepted bundles in hand. *)
  (match e.core with
  | Some _ -> ()
  | None ->
      if all_decided_block e ~base:0 then begin
        let yes = yes_block e ~base:0 in
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
          e.fired <- e.fired + 1
        end
      end);

  (* Gate evaluation (only once the core is known), then the
     multiplication reductions in flight. *)
  (match e.core with
  | None -> ()
  | Some core ->
      for gi = 0 to Array.length e.gate_shares - 1 do
        if Option.is_none e.gate_shares.(gi) then eval_gate e core gi
      done;
      for pos = 0 to Array.length e.muls - 1 do
        let st = e.muls.(pos) in
        if st.started && not st.reduced then reduce_gate e e.mul_gates.(pos) st
      done);

  (* Output dispatch, stage by stage: stage s output shares go out only
     once our own stage s-1 value is reconstructed (the mediator's s-th
     message follows its (s-1)-th). *)
  for si = 0 to Array.length e.stages - 1 do
    if
      (not e.stage_sent.(si))
      && (si = 0 || Option.is_some e.stage_results.(si - 1))
      && all_shared e e.stages.(si)
    then dispatch_stage e si
  done;

  for si = 0 to Array.length e.stage_results - 1 do
    if Option.is_none e.stage_results.(si) then reconstruct_stage e si
  done

(* Passes until one fires nothing. *)
let rec settle e =
  let fired = e.fired in
  settle_pass e;
  if e.fired > fired then settle e

(* The result reconstructed during a settle, if any. *)
let settle_result (e : t) =
  let before = e.result in
  settle e;
  match (before, e.result) with None, Some v -> Some v | _ -> None

let start (e : t) =
  (* Deal our input and randomness contributions. *)
  let deal sid secret = emit_shares e sid (Avss.deal (session e sid) e.rng ~secret).Avss.sends in
  deal (Input_share e.me) e.input;
  for k = 0 to e.circuit.Circuit.n_random - 1 do
    (* Contributions respect the slot's distribution: a mod-m slot sums
       per-player values drawn uniformly in [0, m). *)
    let m = e.circuit.Circuit.random_moduli.(k) in
    let v = if m > 0 then Gf.of_int (Random.State.int e.rng m) else Gf.random e.rng in
    deal (Rand_share (e.me, k)) v
  done;
  let result = settle_result e in
  { sends = take_outbox e; result }

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
  let changed =
    match m with
    | Share_msg (sid, sub) ->
        if session_index e sid < 0 then false
        else begin
          let r = Avss.handle (session e sid) ~src sub in
          emit_shares e sid r.Avss.sends;
          Option.is_some r.Avss.accepted
        end
    | Vote_msg (vid, sub) ->
        if vote_index e vid < 0 then false
        else begin
          let r = Aba.handle (vote e vid) ~src sub in
          emit_votes e vid r.Aba.sends;
          Option.is_some r.Aba.decided
        end
    | Output_msg (stage, v) ->
        stage >= 0
        && stage < Array.length e.stages
        && src >= 0 && src < e.n
        && Option.is_none e.output_points.((stage * e.n) + src)
        && begin
             e.output_points.((stage * e.n) + src) <- Some v;
             e.stage_npoints.(stage) <- e.stage_npoints.(stage) + 1;
             true
           end
  in
  let result = if changed then settle_result e else None in
  match (e.out, result) with [], None -> nothing | _ -> { sends = take_outbox e; result }

let result (e : t) = e.result
let stage_results (e : t) = Array.copy e.stage_results
let input_core e = e.core
