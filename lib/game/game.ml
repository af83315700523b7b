type t = {
  name : string;
  n : int;
  type_counts : int array;
  type_dist : (int array * float) list;
  action_counts : int array;
  utility : types:int array -> actions:int array -> float array;
}

let create ?(name = "game") ~n ~type_counts ~type_dist ~action_counts ~utility () =
  if n < 1 then invalid_arg "Game.create: need n >= 1";
  if Array.length type_counts <> n || Array.length action_counts <> n then
    invalid_arg "Game.create: arity mismatch";
  Array.iter (fun c -> if c < 1 then invalid_arg "Game.create: empty type space") type_counts;
  Array.iter (fun c -> if c < 1 then invalid_arg "Game.create: empty action space") action_counts;
  let mass = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 type_dist in
  if abs_float (mass -. 1.0) > 1e-9 then invalid_arg "Game.create: type distribution mass <> 1";
  List.iter
    (fun (types, p) ->
      if p < 0.0 then invalid_arg "Game.create: negative probability";
      if Array.length types <> n then invalid_arg "Game.create: type profile arity";
      Array.iteri
        (fun i x ->
          if x < 0 || x >= type_counts.(i) then invalid_arg "Game.create: type out of range")
        types)
    type_dist;
  { name; n; type_counts; type_dist; action_counts; utility }

let complete_information ?(name = "game") ~n ~action_counts ~utility () =
  create ~name ~n ~type_counts:(Array.make n 1)
    ~type_dist:[ (Array.make n 0, 1.0) ]
    ~action_counts
    ~utility:(fun ~types:_ ~actions -> utility actions)
    ()

type strategy = int -> (int * float) list

let pure a _ = [ (a, 1.0) ]

let uniform m =
  let p = 1.0 /. float_of_int m in
  fun _ -> List.init m (fun a -> (a, p))

type profile = strategy array

let outcome_dist game profile ~types =
  let per_coord = Array.init game.n (fun i -> profile.(i) types.(i)) in
  Dist.product per_coord

(* Conditional type weights: restrict the joint distribution to profiles
   whose projection on [coalition] equals [types_of], renormalised. *)
let conditioned_weights game ~coalition ~types_of =
  let matches types =
    List.for_all2 (fun i x -> types.(i) = x) coalition (Array.to_list types_of)
  in
  let filtered = List.filter (fun (types, _) -> matches types) game.type_dist in
  let z = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 filtered in
  if z <= 0.0 then
    invalid_arg "Game: conditioning on a zero-probability coalition type profile";
  List.map (fun (types, p) -> (types, p /. z)) filtered

(* Core expectation engine. [overrides types] returns (player, action)
   pairs forcing those players to a pure action in that type profile; all
   other players follow [profile]. *)
let expected_with game profile ?(overrides = fun _ -> []) type_weights =
  let totals = Array.make game.n 0.0 in
  List.iter
    (fun (types, w) ->
      if w > 0.0 then begin
        let ov = overrides types in
        let per_coord =
          Array.init game.n (fun i ->
              match List.assoc_opt i ov with
              | Some a -> [ (a, 1.0) ]
              | None -> profile.(i) types.(i))
        in
        let dist = Dist.product per_coord in
        List.iter
          (fun (actions, p) ->
            let u = game.utility ~types ~actions in
            for i = 0 to game.n - 1 do
              totals.(i) <- totals.(i) +. (w *. p *. u.(i))
            done)
          (Dist.support dist)
      end)
    type_weights;
  totals

let expected_utilities game profile = expected_with game profile game.type_dist

let expected_utility_given game profile ~coalition ~types_of =
  expected_with game profile (conditioned_weights game ~coalition ~types_of)

type witness = {
  coalition : int list;
  coalition_types : int array;
  deviation : int array;
  gains : (int * float) list;
  context : string;
}

let pp_witness fmt w =
  Format.fprintf fmt "@[<v>%s: coalition {%s} with types [%s] deviates to [%s]; gains: %s@]"
    w.context
    (String.concat "," (List.map string_of_int w.coalition))
    (String.concat ";" (List.map string_of_int (Array.to_list w.coalition_types)))
    (String.concat ";" (List.map string_of_int (Array.to_list w.deviation)))
    (String.concat ", "
       (List.map (fun (i, g) -> Printf.sprintf "u%d %+.4f" i g) w.gains))

let tol = 1e-9

let distinct_projections game coalition =
  List.sort_uniq compare
    (List.filter_map
       (fun (types, p) ->
         if p > 0.0 then Some (Array.of_list (List.map (fun i -> types.(i)) coalition))
         else None)
       game.type_dist)

let zip_override members actions =
  List.mapi (fun j i -> (i, actions.(j))) members

(* Shared inner loop for resilience-style checks: quantifies over coalition
   joint types and pure joint deviations; a deviation is a violation when
   [bad gains] holds. *)
let find_violation game profile ~coalition ~eps ~strong ~base_overrides ~context =
  let xs = distinct_projections game coalition in
  let deviations = Subsets.sub_profiles coalition game.action_counts in
  let exceeds dev base = if eps = 0.0 then dev > base +. tol else dev >= base +. eps -. tol in
  List.fold_left
    (fun acc types_of ->
      match acc with
      | Some _ -> acc
      | None ->
          let weights = conditioned_weights game ~coalition ~types_of in
          let base = expected_with game profile ~overrides:base_overrides weights in
          List.fold_left
            (fun acc dev_actions ->
              match acc with
              | Some _ -> acc
              | None ->
                  let overrides types =
                    zip_override coalition dev_actions @ base_overrides types
                  in
                  let dev = expected_with game profile ~overrides weights in
                  let gains = List.map (fun i -> (i, dev.(i) -. base.(i))) coalition in
                  let violated =
                    if strong then
                      List.exists (fun (i, _) -> exceeds dev.(i) base.(i)) gains
                    else List.for_all (fun (i, _) -> exceeds dev.(i) base.(i)) gains
                  in
                  if violated then
                    Some
                      {
                        coalition;
                        coalition_types = types_of;
                        deviation = dev_actions;
                        gains;
                        context;
                      }
                  else None)
            None deviations)
    None xs

let check_k_resilient ?(eps = 0.0) ?(strong = false) ~k game profile =
  if k < 1 then Ok ()
  else
    let coalitions = Subsets.subsets_upto ~n:game.n ~max_size:(min k game.n) in
    let rec go = function
      | [] -> Ok ()
      | coalition :: rest -> (
          match
            find_violation game profile ~coalition ~eps ~strong
              ~base_overrides:(fun _ -> [])
              ~context:(Printf.sprintf "%d-resilience" k)
          with
          | Some w -> Error w
          | None -> go rest)
    in
    go coalitions

let check_t_immune ?(eps = 0.0) ~t game profile =
  if t < 1 then Ok ()
  else
    let sets = Subsets.subsets_upto ~n:game.n ~max_size:(min t game.n) in
    let hurts base dev = if eps = 0.0 then dev < base -. tol else dev <= base -. eps +. tol in
    let rec go = function
      | [] -> Ok ()
      | deviators :: rest ->
          let xs = distinct_projections game deviators in
          let deviations = Subsets.sub_profiles deviators game.action_counts in
          let witness =
            List.fold_left
              (fun acc types_of ->
                match acc with
                | Some _ -> acc
                | None ->
                    let weights = conditioned_weights game ~coalition:deviators ~types_of in
                    let base = expected_with game profile weights in
                    List.fold_left
                      (fun acc dev_actions ->
                        match acc with
                        | Some _ -> acc
                        | None ->
                            let overrides _ = zip_override deviators dev_actions in
                            let dev = expected_with game profile ~overrides weights in
                            let victims =
                              List.filter
                                (fun i ->
                                  (not (List.mem i deviators)) && hurts base.(i) dev.(i))
                                (List.init game.n (fun i -> i))
                            in
                            if victims = [] then None
                            else
                              Some
                                {
                                  coalition = deviators;
                                  coalition_types = types_of;
                                  deviation = dev_actions;
                                  gains =
                                    List.map (fun i -> (i, dev.(i) -. base.(i))) victims;
                                  context = Printf.sprintf "%d-immunity" t;
                                })
                      None deviations)
              None xs
          in
          (match witness with Some w -> Error w | None -> go rest)
    in
    go sets

(* Enumerate all functions from a finite domain to a finite codomain. *)
let all_functions dom cod =
  Subsets.cartesian (List.map (fun _ -> cod) dom)
  |> List.map (fun image ->
         let table = List.combine dom image in
         fun x -> List.assoc x table)

let check_robust ?(eps = 0.0) ?(strong = false) ~k ~t game profile =
  match check_t_immune ~eps ~t game profile with
  | Error w -> Error w
  | Ok () ->
      if k < 1 then Ok ()
      else begin
        let pairs = Subsets.disjoint_pairs ~n:game.n ~max_k:k ~max_t:t in
        let rec go = function
          | [] -> Ok ()
          | (coalition, deviators) :: rest -> (
              let taus =
                match deviators with
                | [] -> [ (fun _ -> [||]) ]
                | _ ->
                    all_functions
                      (distinct_projections game deviators)
                      (Subsets.sub_profiles deviators game.action_counts)
              in
              let witness =
                List.fold_left
                  (fun acc tau ->
                    match acc with
                    | Some _ -> acc
                    | None ->
                        let base_overrides types =
                          match deviators with
                          | [] -> []
                          | _ ->
                              let x_t =
                                Array.of_list (List.map (fun i -> types.(i)) deviators)
                              in
                              zip_override deviators (tau x_t)
                        in
                        find_violation game profile ~coalition ~eps ~strong ~base_overrides
                          ~context:(Printf.sprintf "(%d,%d)-robustness" k t))
                  None taus
              in
              match witness with Some w -> Error w | None -> go rest)
        in
        go pairs
      end

let check_punishment ~m game ~punishment ~target =
  if m < 1 then invalid_arg "Game.check_punishment: need m >= 1";
  let coalitions = Subsets.subsets_upto ~n:game.n ~max_size:(min m game.n) in
  let rec go = function
    | [] -> Ok ()
    | coalition :: rest ->
        let xs = distinct_projections game coalition in
        let deviations = Subsets.sub_profiles coalition game.action_counts in
        let witness =
          List.fold_left
            (fun acc types_of ->
              match acc with
              | Some _ -> acc
              | None ->
                  let weights = conditioned_weights game ~coalition ~types_of in
                  List.fold_left
                    (fun acc dev_actions ->
                      match acc with
                      | Some _ -> acc
                      | None ->
                          let overrides _ = zip_override coalition dev_actions in
                          let dev = expected_with game punishment ~overrides weights in
                          let survivors =
                            List.filter
                              (fun i ->
                                dev.(i)
                                >= target ~player:i ~coalition ~types_of -. tol)
                              coalition
                          in
                          if survivors = [] then None
                          else
                            Some
                              {
                                coalition;
                                coalition_types = types_of;
                                deviation = dev_actions;
                                gains =
                                  List.map
                                    (fun i ->
                                      ( i,
                                        dev.(i)
                                        -. target ~player:i ~coalition ~types_of ))
                                    survivors;
                                context = Printf.sprintf "%d-punishment" m;
                              })
                    None deviations)
            None xs
        in
        (match witness with Some w -> Error w | None -> go rest)
  in
  go coalitions

let pp fmt g =
  Format.fprintf fmt "game %s: %d players, actions [%s], types [%s]" g.name g.n
    (String.concat ";" (List.map string_of_int (Array.to_list g.action_counts)))
    (String.concat ";" (List.map string_of_int (Array.to_list g.type_counts)))
