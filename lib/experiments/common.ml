type table = {
  id : string;
  title : string;
  claim : string;
  header : string list;
  rows : string list list;
  verdict : string;
  metrics : Obs.Metrics.t option;
  complexity : Obs.Complexity.point list;
}

let pad width s =
  let len = String.length s in
  if len >= width then s else s ^ String.make (width - len) ' '

let print_table t =
  let all = t.header :: t.rows in
  let cols = List.fold_left (fun acc row -> max acc (List.length row)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let line row =
    String.concat "  " (List.mapi (fun i cell -> pad widths.(i) cell) row)
  in
  Printf.printf "\n=== %s: %s ===\n" t.id t.title;
  Printf.printf "Claim: %s\n\n" t.claim;
  Printf.printf "%s\n" (line t.header);
  Printf.printf "%s\n" (String.make (String.length (line t.header)) '-');
  List.iter (fun row -> Printf.printf "%s\n" (line row)) t.rows;
  (match t.metrics with
  | None -> ()
  | Some m -> Printf.printf "\n%s\n" (Obs.Metrics.summary_line m));
  (match t.complexity with
  | [] -> ()
  | points ->
      let fit = Obs.Complexity.fit points in
      Printf.printf "%s\n" (Format.asprintf "%a" Obs.Complexity.pp_fit fit));
  Printf.printf "\n>> %s\n" t.verdict

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  String.concat "\n"
    (List.map (fun row -> String.concat "," (List.map csv_cell row)) (t.header :: t.rows))
  ^ "\n"

let write_csv ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (String.lowercase_ascii t.id ^ ".csv") in
  let oc = open_out path in
  output_string oc (to_csv t);
  close_out oc

let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let f4 x = Printf.sprintf "%.4f" x

type budget = Smoke | Quick | Full

let samples b base =
  match b with Smoke -> max 1 (base / 8) | Quick -> base | Full -> 4 * base

type ctx = { budget : budget; pool : Parallel.Pool.t; check_runs : bool }

let ctx ?pool ?(check_runs = Cheaptalk.Verify.default_check_runs) budget =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.sequential in
  { budget; pool; check_runs }

let scheduler_of seed = Sim.Scheduler.random_seeded seed

let map_trials ctx ~samples ~seed f =
  Cheaptalk.Verify.map_trials ~pool:ctx.pool ~samples ~seed f

let map_trials_m ctx ~m ~samples ~seed f =
  let trials = map_trials ctx ~samples ~seed f in
  Cheaptalk.Verify.fold_metrics (Some m) trials;
  Array.map fst trials

let sum_trials_m ctx ~m ~samples ~seed f =
  Array.fold_left ( +. ) 0.0 (map_trials_m ctx ~m ~samples ~seed f)

let metrics_of agg = if Obs.Agg.count agg = 0 then None else Some (Obs.Agg.total agg)

let honest_utilities ?m ctx plan ~samples ~seed =
  Cheaptalk.Verify.expected_utilities ~check_runs:ctx.check_runs ~pool:ctx.pool ?metrics:m
    plan ~samples ~scheduler_of ~seed ()

let utilities_with ?m ctx plan ~samples ~seed ~replace =
  Cheaptalk.Verify.expected_utilities ~check_runs:ctx.check_runs ~pool:ctx.pool ?metrics:m
    plan ~samples ~scheduler_of ~seed ~replace ()

let implementation_distance ?m ctx plan ~types ~samples ~seed =
  Cheaptalk.Verify.implementation_distance ~check_runs:ctx.check_runs ~pool:ctx.pool
    ?metrics:m plan ~types ~samples ~scheduler_of ~seed
