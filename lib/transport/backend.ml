type t = Sim | Live

let to_string = function Sim -> "sim" | Live -> "live"

let of_string = function
  | "sim" -> Sim
  | "live" -> Live
  | s -> invalid_arg (Printf.sprintf "Backend.of_string: %S (expected sim|live)" s)

let run ?(backend = Sim) cfg =
  match backend with Sim -> Sim.Runner.run cfg | Live -> Live.run cfg
