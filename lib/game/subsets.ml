let subsets_exact ~n ~size =
  let rec go start size =
    if size = 0 then [ [] ]
    else
      List.concat_map
        (fun first ->
          List.map (fun rest -> first :: rest) (go (first + 1) (size - 1)))
        (List.init (max 0 (n - start)) (fun i -> start + i))
  in
  go 0 size

let subsets_upto ~n ~max_size =
  List.concat_map (fun size -> subsets_exact ~n ~size) (List.init max_size (fun i -> i + 1))

let disjoint_pairs ~n ~max_k ~max_t =
  let ks = subsets_upto ~n ~max_size:max_k in
  let ts = [] :: subsets_upto ~n ~max_size:max_t in
  List.concat_map
    (fun k ->
      List.filter_map
        (fun t -> if List.exists (fun i -> List.mem i k) t then None else Some (k, t))
        ts)
    ks

let cartesian lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
    lists [ [] ]

let profiles counts =
  let choices = Array.to_list (Array.map (fun c -> List.init c (fun i -> i)) counts) in
  List.map Array.of_list (cartesian choices)

let sub_profiles members counts =
  let choices = List.map (fun i -> List.init counts.(i) (fun a -> a)) members in
  List.map Array.of_list (cartesian choices)
