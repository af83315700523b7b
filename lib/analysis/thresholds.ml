type theorem = T41 | T42 | T44 | T45

let all = [ T41; T42; T44; T45 ]

let name = function
  | T41 -> "Theorem 4.1"
  | T42 -> "Theorem 4.2"
  | T44 -> "Theorem 4.4"
  | T45 -> "Theorem 4.5"

let pp fmt th = Format.pp_print_string fmt (name th)

let required_n th ~k ~t =
  match th with
  | T41 -> (4 * k) + (4 * t) + 1
  | T42 -> (3 * k) + (3 * t) + 1
  | T44 -> (3 * k) + (4 * t) + 1
  | T45 -> (2 * k) + (3 * t) + 1

let ok th ~n ~k ~t = n >= required_n th ~k ~t
let needs_punishment = function T44 | T45 -> true | T41 | T42 -> false

(* The m of the m-punishment the theorem requires. *)
let punishment_size th ~k ~t =
  match th with
  | T44 -> Some (k + t)
  | T45 -> Some ((2 * k) + (2 * t))
  | T41 | T42 -> None

let degree ~k ~t = k + t
let faults th ~k ~t = match th with T41 | T42 -> k + t | T44 | T45 -> t

type instance = {
  theorem : theorem;
  n : int;
  k : int;
  t : int;
  has_punishment : bool;
  multiplies : bool;
}

let analyzer = "thresholds"

let check_sharing ~n ~degree ~faults ~multiplies =
  let f ~subject detail = Finding.v ~analyzer ~subject detail in
  let quorum =
    if n <= 3 * faults then
      [
        f ~subject:"quorum intersection"
          (Printf.sprintf
             "n > 3*faults violated: n=%d, faults=%d — any two (n-f)-quorums must \
              intersect in > f honest players, needs n >= %d"
             n faults ((3 * faults) + 1));
      ]
    else []
  in
  let reconstruct =
    if n < degree + (2 * faults) + 1 then
      [
        f ~subject:"robust reconstruction"
          (Printf.sprintf
             "n >= degree + 2*faults + 1 violated: n=%d, degree=%d, faults=%d — \
              Reed-Solomon decoding with f corruptions needs n >= %d"
             n degree faults
             (degree + (2 * faults) + 1));
      ]
    else []
  in
  let reduce =
    if multiplies && n < (2 * degree) + faults + 1 then
      [
        f ~subject:"degree reduction"
          (Printf.sprintf
             "n >= 2*degree + faults + 1 violated: n=%d, degree=%d, faults=%d — \
              multiplication doubles the sharing degree, reduction needs n >= %d"
             n degree faults
             ((2 * degree) + faults + 1));
      ]
    else []
  in
  quorum @ reconstruct @ reduce

let diagnose inst =
  let { theorem; n; k; t; has_punishment; multiplies } = inst in
  let f ~subject detail = Finding.v ~analyzer ~subject detail in
  if k < 0 || t < 0 then
    [ f ~subject:"deviation budget" (Printf.sprintf "k=%d t=%d: k and t must be non-negative" k t) ]
  else begin
    let threshold =
      if not (ok theorem ~n ~k ~t) then
        [
          f ~subject:"player bound"
            (Printf.sprintf "%s needs n >= %d for k=%d t=%d, but n=%d" (name theorem)
               (required_n theorem ~k ~t)
               k t n);
        ]
      else []
    in
    let punishment =
      if needs_punishment theorem && not has_punishment then
        [
          f ~subject:"punishment profile"
            (Printf.sprintf "%s requires a %d-punishment profile in the spec (carried by the AH wills)"
               (name theorem)
               (Option.value ~default:0 (punishment_size theorem ~k ~t)));
        ]
      else []
    in
    threshold @ punishment
    @ check_sharing ~n ~degree:(degree ~k ~t) ~faults:(faults theorem ~k ~t) ~multiplies
  end

let validate inst =
  let { theorem; n; k; t; has_punishment; multiplies } = inst in
  if k < 0 || t < 0 then Error "k and t must be non-negative"
  else if not (ok theorem ~n ~k ~t) then
    Error
      (Printf.sprintf "%s needs n >= %d for k=%d t=%d, but the game has n=%d" (name theorem)
         (required_n theorem ~k ~t)
         k t n)
  else if needs_punishment theorem && not has_punishment then
    Error (name theorem ^ " requires a punishment profile in the spec")
  else begin
    let d = degree ~k ~t and f = faults theorem ~k ~t in
    if n <= 3 * f then Error "substrate: n > 3*faults violated"
    else if n < d + (2 * f) + 1 then Error "substrate: n >= degree + 2*faults + 1 violated"
    else if multiplies && n < (2 * d) + f + 1 then
      Error "substrate: n >= 2*degree + faults + 1 violated (circuit multiplies)"
    else Ok ()
  end
