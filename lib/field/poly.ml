type t = Gf.t array (* little-endian, normalised: last element nonzero *)

let zero : t = [||]

let normalise (a : Gf.t array) : t =
  let n = Array.length a in
  let rec top i = if i >= 0 && Gf.equal a.(i) Gf.zero then top (i - 1) else i in
  let d = top (n - 1) in
  if d < 0 then [||] else Array.sub a 0 (d + 1)

let of_coeffs a = normalise a
let coeffs (f : t) = Array.copy f

let coeff (f : t) i = if i < Array.length f then f.(i) else Gf.zero

let const c = normalise [| c |]
let one = const Gf.one

let degree (f : t) = Array.length f - 1
let is_zero (f : t) = Array.length f = 0
let equal (f : t) (g : t) = f = g

let eval (f : t) x =
  let acc = ref Gf.zero in
  for i = Array.length f - 1 downto 0 do
    acc := Gf.add (Gf.mul !acc x) f.(i)
  done;
  !acc

let add (f : t) (g : t) =
  let n = max (Array.length f) (Array.length g) in
  normalise (Array.init n (fun i -> Gf.add (coeff f i) (coeff g i)))

let sub (f : t) (g : t) =
  let n = max (Array.length f) (Array.length g) in
  normalise (Array.init n (fun i -> Gf.sub (coeff f i) (coeff g i)))

let neg (f : t) = Array.map Gf.neg f

let mul (f : t) (g : t) =
  if is_zero f || is_zero g then zero
  else begin
    let r = Array.make (Array.length f + Array.length g - 1) Gf.zero in
    Array.iteri
      (fun i fi ->
        if not (Gf.equal fi Gf.zero) then
          Array.iteri (fun j gj -> r.(i + j) <- Gf.add r.(i + j) (Gf.mul fi gj)) g)
      f;
    normalise r
  end

let scale c (f : t) =
  if Gf.equal c Gf.zero then zero else Array.map (Gf.mul c) f

let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  let db = degree b in
  let lead_inv = Gf.inv b.(db) in
  let r = Array.copy a in
  let da = degree a in
  if da < db then (zero, normalise r)
  else begin
    let q = Array.make (da - db + 1) Gf.zero in
    for i = da downto db do
      let c = Gf.mul r.(i) lead_inv in
      if not (Gf.equal c Gf.zero) then begin
        q.(i - db) <- c;
        for j = 0 to db do
          r.(i - db + j) <- Gf.sub r.(i - db + j) (Gf.mul c b.(j))
        done
      end
    done;
    (normalise q, normalise r)
  end

let interpolate points =
  let xs = List.map fst points in
  let rec dup = function
    | [] -> false
    | x :: rest -> List.exists (Gf.equal x) rest || dup rest
  in
  if dup xs then invalid_arg "Poly.interpolate: duplicate x coordinate";
  (* Sum of y_i * prod_{j<>i} (X - x_j)/(x_i - x_j); all the denominator
     inversions are batched (Montgomery) into a single field inversion. *)
  let pts = Array.of_list points in
  let denoms =
    Array.map
      (fun (xi, _) ->
        Array.fold_left
          (fun d (xj, _) -> if Gf.equal xi xj then d else Gf.mul d (Gf.sub xi xj))
          Gf.one pts)
      pts
  in
  let inv_denoms = if Array.length pts = 0 then [||] else Gf.batch_inv denoms in
  let term i (xi, yi) =
    let num =
      Array.fold_left
        (fun num (xj, _) ->
          if Gf.equal xi xj then num else mul num (of_coeffs [| Gf.neg xj; Gf.one |]))
        one pts
    in
    scale (Gf.mul yi inv_denoms.(i)) num
  in
  let acc = ref zero in
  Array.iteri (fun i pt -> acc := add !acc (term i pt)) pts;
  !acc

let random st ~degree =
  if degree < 0 then zero
  else normalise (Array.init (degree + 1) (fun _ -> Gf.random st))

let random_with_secret st ~degree ~secret =
  if degree < 0 then invalid_arg "Poly.random_with_secret: negative degree";
  let a = Array.init (degree + 1) (fun _ -> Gf.random st) in
  a.(0) <- secret;
  normalise a

let pp fmt (f : t) =
  if is_zero f then Format.fprintf fmt "0"
  else
    Array.iteri
      (fun i c ->
        if not (Gf.equal c Gf.zero) then
          if i = 0 then Format.fprintf fmt "%a" Gf.pp c
          else Format.fprintf fmt " + %a*x^%d" Gf.pp c i)
      f
