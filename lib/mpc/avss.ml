module Gf = Field.Gf
module Poly = Field.Poly
module Bipoly = Field.Bipoly

type msg =
  | Row of Poly.t
  | Point of Gf.t
  | Ready

let pp_msg fmt = function
  | Row p -> Format.fprintf fmt "Row(%a)" Poly.pp p
  | Point v -> Format.fprintf fmt "Point(%a)" Gf.pp v
  | Ready -> Format.fprintf fmt "Ready"

type t = {
  n : int;
  deg : int; (* sharing degree: privacy threshold (k+t in the compiler) *)
  faults : int; (* max Byzantine players the quorums must absorb *)
  me : int;
  dealer : int;
  mutable row : Poly.t option;
  mutable row_received : bool; (* a Row message was already processed *)
  mutable points_sent : bool;
  (* Per-pid state lives in flat arrays (pids are dense 0..n-1): the old
     per-instance Hashtbls cost a polymorphic hash + bucket walk on every
     progress scan, which dominated the simulator profile. *)
  points : Gf.t option array; (* src -> claimed f_src(me) = f_me(src) *)
  mutable n_points : int;
  (* Received points that lie on [row]: counted once when the row is set,
     then 1 more per new point on it (the row and each point are written
     once). 0 while no row is held. Our own point is the separate +1 of
     [corroboration]. *)
  mutable on_row : int;
  mutable readied : bool;
  ready : bool array;
  mutable n_ready : int;
  mutable accepted_share : Gf.t option;
}

type reaction = {
  sends : (int * msg) list;
  accepted : Gf.t option;
}

let nothing = { sends = []; accepted = None }

let create ~n ~degree ~faults ~me ~dealer =
  if n <= 3 * faults then invalid_arg "Avss.create: need n > 3*faults";
  if n < degree + (2 * faults) + 1 then
    invalid_arg "Avss.create: need n >= degree + 2*faults + 1";
  if me < 0 || me >= n || dealer < 0 || dealer >= n then invalid_arg "Avss.create: pid range";
  {
    n;
    deg = degree;
    faults;
    me;
    dealer;
    row = None;
    row_received = false;
    points_sent = false;
    points = Array.make n None;
    n_points = 0;
    on_row = 0;
    readied = false;
    ready = Array.make n false;
    n_ready = 0;
    accepted_share = None;
  }

let share s = s.accepted_share
let is_accepted s = Option.is_some s.accepted_share

(* Points from others claimed to equal our row at their index (1-based
   evaluation points: player i evaluates at i+1). *)
let point_of _s i = Gf.of_int (i + 1)

(* The received points that lie on [row], counted from scratch. *)
let count_on_row s row =
  let acc = ref 0 in
  for src = 0 to s.n - 1 do
    match s.points.(src) with
    | Some p -> if Gf.equal (Poly.eval row (point_of s src)) p then incr acc
    | None -> ()
  done;
  !acc

let set_row s row =
  s.row <- Some row;
  s.on_row <- count_on_row s row

(* Our own point trivially matches. *)
let corroboration s = match s.row with Some _ -> 1 + s.on_row | None -> 0

module Ref = struct
  let matching_points s = match s.row with Some row -> 1 + count_on_row s row | None -> 0
end

(* [send_points] and [send_ready] build their messages, one per other
   player in pid order, directly onto [tail]. *)
let send_points s row tail =
  if s.points_sent then tail
  else begin
    s.points_sent <- true;
    let acc = ref tail in
    for j = s.n - 1 downto 0 do
      if j <> s.me then acc := (j, Point (Poly.eval row (point_of s j))) :: !acc
    done;
    !acc
  end

let send_ready s tail =
  if s.readied then tail
  else begin
    s.readied <- true;
    if not s.ready.(s.me) then begin
      s.ready.(s.me) <- true;
      s.n_ready <- s.n_ready + 1
    end;
    let acc = ref tail in
    for j = s.n - 1 downto 0 do
      if j <> s.me then acc := (j, Ready) :: !acc
    done;
    !acc
  end

(* Attempt to recover our row from cross points: the points (j, p_j) we
   received lie on our row. Adopt a decoded row only when it is certified
   against >= 2t+1 of the points (so at least t+1 honest points pin it). *)
let try_recover_row s =
  match s.row with
  | Some _ -> None
  | None when s.n_points < s.deg + s.faults + 1 ->
      (* too few points to decode even error-free: [try_e 0]'s bound,
         tested before anything is allocated *)
      None
  | None ->
      (* Collect received cross points in pid order (the decoded row is
         the unique certified polynomial, so point order cannot change
         the result — only the cache keys). *)
      let r = s.n_points in
      let xs = Array.make r Gf.zero in
      let ys = Array.make r Gf.zero in
      let i = ref 0 in
      for src = 0 to s.n - 1 do
        match s.points.(src) with
        | Some p ->
            xs.(!i) <- point_of s src;
            ys.(!i) <- p;
            incr i
        | None -> ()
      done;
      let rec try_e e =
        if e > s.faults || s.deg + s.faults + 1 + e > r then None
        else
          match Shamir.decode_arrays ~degree:s.deg ~max_errors:e xs ys with
          | Some row -> Some row
          | None -> try_e (e + 1)
      in
      try_e 0

(* Progress rules shared by all handlers. *)
let progress s =
  let sends =
    match s.row with
    | None when s.n_ready >= 1 -> (
        (* Row recovery becomes possible as points accumulate, and is only
           attempted once the instance shows signs of life (some READY). *)
        match try_recover_row s with
        | Some row ->
            set_row s row;
            send_points s row []
        | None -> [])
    | _ -> []
  in
  let sends =
    match s.row with
    | Some _ ->
        let m = corroboration s in
        (* READY on enough corroboration, or amplification: enough
           corroboration plus t+1 announcements *)
        if m >= s.deg + s.faults + 1 || (m >= s.deg + 1 && s.n_ready >= s.faults + 1) then
          send_ready s sends
        else sends
    | None -> sends
  in
  let accepted =
    match (s.accepted_share, s.row) with
    | None, Some row when s.n_ready >= (2 * s.faults) + 1 ->
        let sh = Poly.eval row Gf.zero in
        s.accepted_share <- Some sh;
        Some sh
    | _ -> None
  in
  match (sends, accepted) with [], None -> nothing | _ -> { sends; accepted }

(* [deal] and the Row handler run [progress] before building their own
   sends, so that those are built onto its sends in one pass; with the
   row held, [progress] reads neither the rows nor the points flag. *)
let deal s rng ~secret =
  if s.me <> s.dealer then invalid_arg "Avss.deal: not the dealer";
  if s.row_received then invalid_arg "Avss.deal: already dealt";
  let b = Bipoly.random_symmetric rng ~degree:s.deg ~secret in
  s.row_received <- true;
  let my_row = Bipoly.row b (point_of s s.me) in
  set_row s my_row;
  let r = progress s in
  let acc = ref (send_points s my_row r.sends) in
  for j = s.n - 1 downto 0 do
    if j <> s.me then acc := (j, Row (Bipoly.row b (point_of s j))) :: !acc
  done;
  { r with sends = !acc }

let handle s ~src m =
  match m with
  | Row row ->
      if src <> s.dealer || s.row_received then nothing
      else begin
        s.row_received <- true;
        if Poly.degree row > s.deg then nothing
        else begin
          let held =
            match s.row with
            | Some recovered -> recovered (* keep the recovered row; its points are out *)
            | None ->
                set_row s row;
                row
          in
          let r = progress s in
          { r with sends = send_points s held r.sends }
        end
      end
  | Point p ->
      if src < 0 || src >= s.n || Option.is_some s.points.(src) then nothing
      else begin
        s.points.(src) <- Some p;
        s.n_points <- s.n_points + 1;
        (match s.row with
        | Some row -> if Gf.equal (Poly.eval row (point_of s src)) p then s.on_row <- s.on_row + 1
        | None -> ());
        progress s
      end
  | Ready ->
      if src < 0 || src >= s.n || s.ready.(src) then nothing
      else begin
        s.ready.(src) <- true;
        s.n_ready <- s.n_ready + 1;
        progress s
      end
