module Key = struct
  type t = int array

  let compare (a : t) (b : t) = Stdlib.compare (Array.to_list a) (Array.to_list b)
end

module M = Map.Make (Key)

type t = float M.t

let empty = M.empty

let add_mass m key w =
  if w < 0.0 then invalid_arg "Dist: negative weight";
  if w = 0.0 then m
  else
    M.update key (function None -> Some w | Some w0 -> Some (w0 +. w)) m

let of_list l = List.fold_left (fun m (key, w) -> add_mass m (Array.copy key) w) empty l

let mass m = M.fold (fun _ w acc -> acc +. w) m 0.0

let normalise m =
  let z = mass m in
  if z <= 0.0 then invalid_arg "Dist.normalise: zero mass";
  M.map (fun w -> w /. z) m

let support m = M.bindings (M.filter (fun _ w -> w > 0.0) m)

let prob m key = match M.find_opt key m with Some w -> w | None -> 0.0

let l1 a b =
  let keys = M.fold (fun k _ acc -> M.add k () acc) a M.empty in
  let keys = M.fold (fun k _ acc -> M.add k () acc) b keys in
  M.fold (fun k () acc -> acc +. abs_float (prob a k -. prob b k)) keys 0.0

let tv a b = l1 a b /. 2.0

let map_profiles f m =
  M.fold (fun k w acc -> add_mass acc (f k) w) m empty

let deterministic key = of_list [ (key, 1.0) ]

let product per_coord =
  let n = Array.length per_coord in
  let rec go i acc_key acc_p m =
    if i = n then add_mass m (Array.of_list (List.rev acc_key)) acc_p
    else
      List.fold_left
        (fun m (a, p) -> if p = 0.0 then m else go (i + 1) (a :: acc_key) (acc_p *. p) m)
        m per_coord.(i)
  in
  go 0 [] 1.0 empty

module Empirical = struct
  type t = { mutable counts : int M.t; mutable total : int }

  let create () = { counts = M.empty; total = 0 }

  let add e key =
    e.counts <-
      M.update (Array.copy key)
        (function None -> Some 1 | Some c -> Some (c + 1))
        e.counts;
    e.total <- e.total + 1

  let count e = e.total

  let to_dist e =
    if e.total = 0 then invalid_arg "Dist.Empirical.to_dist: no samples";
    let z = float_of_int e.total in
    M.map (fun c -> float_of_int c /. z) e.counts
end

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (k, w) ->
      Format.fprintf fmt "[%s] ↦ %.4f@,"
        (String.concat ";" (List.map string_of_int (Array.to_list k)))
        w)
    (support m);
  Format.fprintf fmt "@]"
