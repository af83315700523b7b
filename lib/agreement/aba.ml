type msg =
  | Bval of { round : int; value : bool }
  | Aux of { round : int; value : bool }
  | Decide of bool

let pp_msg fmt = function
  | Bval { round; value } -> Format.fprintf fmt "BVAL(%d,%b)" round value
  | Aux { round; value } -> Format.fprintf fmt "AUX(%d,%b)" round value
  | Decide v -> Format.fprintf fmt "DECIDE(%b)" v

(* Who sent which value, one value per src (AUX and DECIDE): [from] is
   n bytes, 0 = nothing yet, 1 = false, 2 = true, and the two counters
   make every quorum query O(1) and allocation-free. *)
type tally = {
  from : Bytes.t;
  mutable n_false : int;
  mutable n_true : int;
}

let tally_create n = { from = Bytes.make n '\000'; n_false = 0; n_true = 0 }
let tally_count t v = if v then t.n_true else t.n_false
let tally_total t = t.n_false + t.n_true

(* [src]'s value becomes [v], replacing any earlier one. *)
let tally_set t src v =
  (match Bytes.get t.from src with
  | '\001' -> t.n_false <- t.n_false - 1
  | '\002' -> t.n_true <- t.n_true - 1
  | _ -> ());
  Bytes.set t.from src (if v then '\002' else '\001');
  if v then t.n_true <- t.n_true + 1 else t.n_false <- t.n_false + 1

(* The first value from [src] counts; later ones are ignored. *)
let tally_add t src v = if Bytes.get t.from src = '\000' then tally_set t src v

type round_state = {
  (* per src: bit 0 = BVAL(r, false) in, bit 1 = BVAL(r, true) in (a
     player may send both), counted per value *)
  bval_from : Bytes.t;
  mutable bval_false : int;
  mutable bval_true : int;
  mutable bval_sent_false : bool;
  mutable bval_sent_true : bool;
  mutable bin_false : bool;
  mutable bin_true : bool;
  mutable aux_sent : bool;
  aux : tally;
  mutable completed : bool;
}

(* Rounds stay sparse: a Byzantine player may name any round. *)
module Rounds = Hashtbl.Make (Int)

type t = {
  n : int;
  f : int;
  me : int;
  coin : Coin.t;
  rounds : round_state Rounds.t;
  mutable current : int; (* 0 = not proposed *)
  mutable est : bool;
  mutable decided : bool option;
  mutable decide_sent : bool;
  decide_from : tally;
  mutable halted : bool;
}

let create ~n ~f ~me ~coin =
  if n <= 3 * f then invalid_arg "Aba.create: need n > 3f";
  {
    n;
    f;
    me;
    coin;
    rounds = Rounds.create 8;
    current = 0;
    est = false;
    decided = None;
    decide_sent = false;
    decide_from = tally_create n;
    halted = false;
  }

let round_state s r =
  match Rounds.find_opt s.rounds r with
  | Some st -> st
  | None ->
      let st =
        {
          bval_from = Bytes.make s.n '\000';
          bval_false = 0;
          bval_true = 0;
          bval_sent_false = false;
          bval_sent_true = false;
          bin_false = false;
          bin_true = false;
          aux_sent = false;
          aux = tally_create s.n;
          completed = false;
        }
      in
      Rounds.replace s.rounds r st;
      st

type reaction = {
  sends : (int * msg) list;
  decided : bool option;
}

let nothing = { sends = []; decided = None }

let to_others s m =
  let acc = ref [] in
  for dst = s.n - 1 downto 0 do
    if dst <> s.me then acc := (dst, m) :: !acc
  done;
  !acc

let bval_count st v = if v then st.bval_true else st.bval_false
let bval_sent st v = if v then st.bval_sent_true else st.bval_sent_false

let record_bval st src v =
  let bit = if v then 2 else 1 in
  let seen = Char.code (Bytes.get st.bval_from src) in
  if seen land bit = 0 then begin
    Bytes.set st.bval_from src (Char.chr (seen lor bit));
    if v then st.bval_true <- st.bval_true + 1 else st.bval_false <- st.bval_false + 1
  end

let mark_bval_sent st v = if v then st.bval_sent_true <- true else st.bval_sent_false <- true
let in_bin st v = if v then st.bin_true else st.bin_false
let add_bin st v = if v then st.bin_true <- true else st.bin_false <- true

(* Send BVAL(r, v) from ourselves: mark, self-record, emit. *)
let send_bval s r v =
  let st = round_state s r in
  if bval_sent st v then []
  else begin
    mark_bval_sent st v;
    record_bval st s.me v;
    to_others s (Bval { round = r; value = v })
  end

let send_aux s r v =
  let st = round_state s r in
  if st.aux_sent then []
  else begin
    st.aux_sent <- true;
    tally_set st.aux s.me v;
    to_others s (Aux { round = r; value = v })
  end

let send_decide s v =
  if s.decide_sent then []
  else begin
    s.decide_sent <- true;
    tally_set s.decide_from s.me v;
    to_others s (Decide v)
  end

(* Propagate quorum effects inside round [r]; returns sends. *)
let bval_progress s r =
  let st = round_state s r in
  let sends = ref [] in
  for i = 0 to 1 do
    let v = i = 1 in
    let c = bval_count st v in
    if c >= s.f + 1 && not (bval_sent st v) then sends := send_bval s r v @ !sends;
    if c >= (2 * s.f) + 1 && not (in_bin st v) then begin
      add_bin st v;
      (* bin_values became nonempty: send AUX once (in our current round). *)
      if r = s.current && not st.aux_sent then sends := send_aux s r v @ !sends
    end
  done;
  (* We may have entered round r with bin_values already populated. *)
  if r = s.current && not st.aux_sent then begin
    if st.bin_true then sends := send_aux s r true @ !sends
    else if st.bin_false then sends := send_aux s r false @ !sends
  end;
  !sends

(* Try to complete the current round; may decide and/or advance. *)
let rec try_complete s =
  if s.halted || s.current = 0 then nothing
  else begin
    let r = s.current in
    let st = round_state s r in
    if st.completed || not st.aux_sent then nothing
    else begin
      let valid =
        (if st.bin_false then st.aux.n_false else 0) + (if st.bin_true then st.aux.n_true else 0)
      in
      if valid < s.n - s.f then nothing
      else begin
        let vals_true = st.bin_true && st.aux.n_true > 0 in
        let vals_false = st.bin_false && st.aux.n_false > 0 in
        st.completed <- true;
        let c = s.coin ~round:r in
        let decided_now = ref None in
        let sends = ref [] in
        (match (vals_false, vals_true) with
        | true, false | false, true ->
            let v = vals_true in
            s.est <- v;
            if v = c then begin
              match s.decided with
              | Some _ -> ()
              | None ->
                  s.decided <- Some v;
                  decided_now := Some v;
                  sends := send_decide s v @ !sends
            end
        | _ ->
            (* both (or pathologically neither): adopt the coin *)
            s.est <- c);
        (* Advance. *)
        s.current <- r + 1;
        sends := !sends @ send_bval s (r + 1) s.est;
        sends := !sends @ bval_progress s (r + 1);
        let next = try_complete s in
        { sends = !sends @ next.sends; decided = (match !decided_now with Some v -> Some v | None -> next.decided) }
      end
    end
  end

let propose s v =
  if s.current <> 0 then invalid_arg "Aba.propose: already proposed";
  if s.halted then nothing
  else begin
    s.current <- 1;
    s.est <- v;
    let sends = send_bval s 1 v in
    let sends = sends @ bval_progress s 1 in
    let r = try_complete s in
    { sends = sends @ r.sends; decided = r.decided }
  end

let check_halt s =
  if (not s.halted) && tally_total s.decide_from >= s.n - s.f then s.halted <- true

(* A [src] outside [0, n) is ignored: the runner never delivers one. *)
let handle s ~src m =
  if s.halted || src < 0 || src >= s.n then nothing
  else
    match m with
    | Bval { round; value } ->
        let st = round_state s round in
        record_bval st src value;
        let sends = bval_progress s round in
        let r = try_complete s in
        check_halt s;
        { sends = sends @ r.sends; decided = r.decided }
    | Aux { round; value } ->
        tally_add (round_state s round).aux src value;
        let r = try_complete s in
        check_halt s;
        r
    | Decide v ->
        tally_add s.decide_from src v;
        let count = tally_count s.decide_from v in
        let sends = ref [] in
        let decided_now = ref None in
        if count >= s.f + 1 then begin
          (match s.decided with
          | Some _ -> ()
          | None ->
              s.decided <- Some v;
              decided_now := Some v);
          sends := send_decide s v @ !sends
        end;
        check_halt s;
        { sends = !sends; decided = !decided_now }

let decision (s : t) = s.decided
let halted (s : t) = s.halted
let round (s : t) = s.current
