type t = Sim | Live

let to_string = function Sim -> "sim" | Live -> "live"
