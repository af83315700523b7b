type node = {
  view : Types.pending_view;
  mutable prev : node option;
  mutable next : node option;
  mutable live : bool;
}

type t = {
  mutable first : node option;
  mutable last : node option;
  mutable size : int;
}

let create () = { first = None; last = None; size = 0 }

let count s = s.size
let is_empty s = s.size = 0

(* Drop every element at once (the nodes become garbage without being
   individually unlinked). Used by the session-recycling path; any node
   handles the caller still holds are dead with the list. *)
let clear s =
  s.first <- None;
  s.last <- None;
  s.size <- 0

let append s view =
  let node = { view; prev = s.last; next = None; live = true } in
  (* one option box serves as both links to the new tail *)
  let link = Some node in
  (match s.last with
  | Some tail -> tail.next <- link
  | None -> s.first <- link);
  s.last <- link;
  s.size <- s.size + 1;
  node

let remove s node =
  if node.live then begin
    node.live <- false;
    (match node.prev with
    | Some p -> p.next <- node.next
    | None -> s.first <- node.next);
    (match node.next with
    | Some nx -> nx.prev <- node.prev
    | None -> s.last <- node.prev);
    node.prev <- None;
    node.next <- None;
    s.size <- s.size - 1
  end

let view_of node = node.view

let oldest s =
  match s.first with
  | Some node -> node.view
  | None -> invalid_arg "Pending_set.oldest: empty"

let newest s =
  match s.last with
  | Some node -> node.view
  | None -> invalid_arg "Pending_set.newest: empty"

(* Walk from the nearer end: at most size/2 links. *)
let nth s i =
  if i < 0 || i >= s.size then invalid_arg "Pending_set.nth: out of range";
  let rec forward node i =
    match node with
    | None -> invalid_arg "Pending_set.nth: corrupt"
    | Some node -> if i = 0 then node.view else forward node.next (i - 1)
  in
  let rec backward node i =
    match node with
    | None -> invalid_arg "Pending_set.nth: corrupt"
    | Some node -> if i = 0 then node.view else backward node.prev (i - 1)
  in
  if 2 * i < s.size then forward s.first i else backward s.last (s.size - 1 - i)

let iter s f =
  let rec go = function
    | None -> ()
    | Some node ->
        let next = node.next in
        f node.view;
        go next
  in
  go s.first

let find s p =
  let rec go = function
    | None -> None
    | Some node -> if p node.view then Some node.view else go node.next
  in
  go s.first

let choose_where s p ~rng =
  (* Two direct node walks: count, then index into the matches. No
     closure allocation, no [Exit] raise on the hot scheduler path. *)
  let rec count acc = function
    | None -> acc
    | Some node -> count (if p node.view then acc + 1 else acc) node.next
  in
  let matches = count 0 s.first in
  if matches = 0 then None
  else begin
    let rec pick target = function
      | None -> None
      | Some node ->
          if p node.view then
            if target = 0 then Some node.view else pick (target - 1) node.next
          else pick target node.next
    in
    pick (Random.State.int rng matches) s.first
  end

let to_list s =
  let acc = ref [] in
  iter s (fun v -> acc := v :: !acc);
  List.rev !acc
