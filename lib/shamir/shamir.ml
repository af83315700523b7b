module Gf = Field.Gf
module Poly = Field.Poly
module Linalg = Field.Linalg

type share = { index : int; value : Gf.t }

let share rng ~n ~t ~secret =
  if t < 0 || t >= n then invalid_arg "Shamir.share: need 0 <= t < n";
  let poly = Poly.random_with_secret rng ~degree:t ~secret in
  Array.init n (fun i ->
      let index = i + 1 in
      { index; value = Poly.eval poly (Gf.of_int index) })

(* Share indices are 1-based evaluation points; anything outside
   [1, max_index] is rejected (previously an out-of-range index could
   alias another point mod p and fail deep inside interpolation). *)
let max_index = 1_000_000

(* Duplicate detection without a per-call Hashtbl: a stack bitmask when
   every index fits in an OCaml int's 62 usable bits, else one Bytes
   bitset sized by the largest index. Returns [false] on duplicates AND
   on out-of-range indices. *)
let distinct_index_array (idx : int array) =
  let m = Array.length idx in
  let ok = ref true in
  let maxi = ref 0 in
  for i = 0 to m - 1 do
    let v = idx.(i) in
    if v < 1 || v > max_index then ok := false else if v > !maxi then maxi := v
  done;
  if not !ok then false
  else if !maxi <= 62 then begin
    let mask = ref 0 in
    let i = ref 0 in
    while !ok && !i < m do
      let bit = 1 lsl (idx.(!i) - 1) in
      if !mask land bit <> 0 then ok := false else mask := !mask lor bit;
      incr i
    done;
    !ok
  end
  else begin
    let bits = Bytes.make ((!maxi / 8) + 1) '\000' in
    let i = ref 0 in
    while !ok && !i < m do
      let v = idx.(!i) - 1 in
      let byte = Char.code (Bytes.unsafe_get bits (v lsr 3)) in
      let bit = 1 lsl (v land 7) in
      if byte land bit <> 0 then ok := false
      else Bytes.unsafe_set bits (v lsr 3) (Char.chr (byte lor bit));
      incr i
    done;
    !ok
  end

(* ------------------------------------------------------------------ *)
(* Per-domain memoisation.

   Reconstructions recur over the same share-index sets across trials, so
   the Lagrange coefficients (both the at-zero weights and the full basis
   polynomials used by the Berlekamp-Welch fast path) are cached, keyed by
   the exact index/x-coordinate tuple. Each domain owns its own tables
   (Domain.DLS), so there is no cross-domain mutation; a cache can only
   memoise a pure function of its key, so results are byte-identical with
   or without it, at any domain count. *)

type dstate = {
  scratch : Linalg.Scratch.t; (* BW linear systems, reused across decodes *)
  zero_cache : (int array, Gf.t array) Hashtbl.t; (* indices -> at-zero weights *)
  basis_cache : (int array, Gf.t array array) Hashtbl.t; (* xs -> basis coeffs *)
}

let dls =
  Domain.DLS.new_key (fun () ->
      {
        scratch = Linalg.Scratch.create ();
        zero_cache = Hashtbl.create 64;
        basis_cache = Hashtbl.create 64;
      })

let state () = Domain.DLS.get dls

let clear_caches () =
  let st = state () in
  Hashtbl.reset st.zero_cache;
  Hashtbl.reset st.basis_cache

let cache_size () =
  let st = state () in
  Hashtbl.length st.zero_cache + Hashtbl.length st.basis_cache

(* At-zero Lagrange weights for a distinct index tuple:
   lambda_j = prod_{m<>j} x_m / (x_m - x_j), one batched inversion. *)
let compute_zero_coeffs (idx : int array) =
  let k = Array.length idx in
  let xs = Array.map Gf.of_int idx in
  let dens = Array.make k Gf.one in
  let nums = Array.make k Gf.one in
  for j = 0 to k - 1 do
    let xj = xs.(j) in
    let num = ref Gf.one and den = ref Gf.one in
    for m = 0 to k - 1 do
      if m <> j then begin
        num := Gf.mul !num xs.(m);
        den := Gf.mul !den (Gf.sub xs.(m) xj)
      end
    done;
    nums.(j) <- !num;
    dens.(j) <- !den
  done;
  if k > 0 then Gf.batch_inv_into dens (Array.copy dens);
  Array.init k (fun j -> Gf.mul nums.(j) dens.(j))

let zero_coeffs (idx : int array) =
  let st = state () in
  match Hashtbl.find_opt st.zero_cache idx with
  | Some c -> c
  | None ->
      let c = compute_zero_coeffs idx in
      Hashtbl.replace st.zero_cache idx c;
      c

(* Full Lagrange basis polynomials for a distinct x tuple (raw field
   representatives as the key): basis_j has degree k-1 and coefficient
   arrays of length k; the interpolant of (x_j, y_j) is sum y_j*basis_j.
   P = prod (x - x_m) is expanded once, each numerator is P / (x - x_j)
   by synthetic division, and the k denominators cost one inversion. *)
let compute_basis (key : int array) =
  let k = Array.length key in
  let xs : Gf.t array = Array.map Gf.of_int key in
  (* full product P, degree k: coeffs p.(0..k) *)
  let p = Array.make (k + 1) Gf.zero in
  p.(0) <- Gf.one;
  for m = 0 to k - 1 do
    (* multiply by (x - xs.(m)) *)
    for d = m + 1 downto 1 do
      p.(d) <- Gf.sub p.(d - 1) (Gf.mul xs.(m) p.(d))
    done;
    p.(0) <- Gf.neg (Gf.mul xs.(m) p.(0))
  done;
  let nums = Array.make k [||] in
  let dens = Array.make k Gf.one in
  for j = 0 to k - 1 do
    (* synthetic division of P by (x - xs.(j)): remainder is 0 *)
    let n = Array.make k Gf.zero in
    let carry = ref Gf.zero in
    for d = k - 1 downto 0 do
      let c = Gf.add p.(d + 1) (Gf.mul xs.(j) !carry) in
      n.(d) <- c;
      carry := c
    done;
    nums.(j) <- n;
    (* denominator: N_j evaluated at x_j *)
    let acc = ref Gf.zero in
    for d = k - 1 downto 0 do
      acc := Gf.add (Gf.mul !acc xs.(j)) n.(d)
    done;
    dens.(j) <- !acc
  done;
  if k > 0 then Gf.batch_inv_into dens (Array.copy dens);
  Array.init k (fun j -> Array.map (fun c -> Gf.mul c dens.(j)) nums.(j))

let basis_for (key : int array) =
  let st = state () in
  match Hashtbl.find_opt st.basis_cache key with
  | Some b -> b
  | None ->
      let b = compute_basis key in
      Hashtbl.replace st.basis_cache key b;
      b

(* ------------------------------------------------------------------ *)
(* Reconstruction. *)

let reconstruct ~t shares =
  let idx = Array.of_list (List.map (fun s -> s.index) shares) in
  if Array.length idx < t + 1 || not (distinct_index_array idx) then None
  else begin
    let k = t + 1 in
    let head = Array.sub idx 0 k in
    let lambda = zero_coeffs head in
    let acc = ref Gf.zero in
    List.iteri
      (fun i s -> if i < k then acc := Gf.add !acc (Gf.mul lambda.(i) s.value))
      shares;
    Some !acc
  end

let lagrange_at_zero indices =
  let idx = Array.of_list indices in
  let rec dup = function
    | [] -> false
    | x :: rest -> List.mem x rest || dup rest
  in
  if dup indices then invalid_arg "Shamir.lagrange_at_zero: duplicate index";
  let lambda = zero_coeffs idx in
  List.mapi (fun i j -> (j, lambda.(i))) indices

(* ------------------------------------------------------------------ *)
(* Berlekamp-Welch over point arrays.

   Fast path: interpolate the first degree+1 points with the cached
   Lagrange basis and certify against every point. When at most
   [max_errors] points disagree, the interpolant IS the unique decode
   answer (any two degree-<=d polynomials each agreeing with all but e of
   m >= d+1+2e points coincide on >= d+1 points), so the linear system is
   skipped entirely — the common no-corruption case costs O(m·d). The
   slow path builds the Q/E system directly into the per-domain scratch
   and eliminates in place: no matrix copies, no per-row lists. *)

let decode_pts ~degree ~max_errors (xs_raw : int array) (xs : Gf.t array)
    (ys : Gf.t array) =
  let m = Array.length xs in
  if m < degree + 1 + (2 * max_errors) then None
  else begin
    let k = degree + 1 in
    let head = Array.sub xs_raw 0 k in
    (* distinctness of the head x's (required by the Lagrange basis): *)
    let head_distinct =
      let ok = ref true in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          if xs.(i) = xs.(j) then ok := false
        done
      done;
      !ok
    in
    let fast_result =
      if not head_distinct then None
      else begin
        let basis = basis_for head in
        (* interpolant coefficients: sum_j y_j * basis_j *)
        let coeffs = Array.make k Gf.zero in
        for j = 0 to k - 1 do
          let yj = ys.(j) in
          if not (Gf.equal yj Gf.zero) then begin
            let bj = basis.(j) in
            for d = 0 to k - 1 do
              coeffs.(d) <- Gf.add coeffs.(d) (Gf.mul yj bj.(d))
            done
          end
        done;
        let errors = ref 0 in
        for i = 0 to m - 1 do
          let x = xs.(i) in
          let acc = ref Gf.zero in
          for d = k - 1 downto 0 do
            acc := Gf.add (Gf.mul !acc x) coeffs.(d)
          done;
          if not (Gf.equal !acc ys.(i)) then incr errors
        done;
        if !errors <= max_errors then Some (Poly.of_coeffs coeffs) else None
      end
    in
    match fast_result with
    | Some _ as r -> r
    | None ->
        (* Full Berlekamp-Welch. Unknowns: E(x) = x^e + ... + e_0 (monic,
           degree exactly e) and Q(x) of degree <= degree + e. Constraint
           per point: Q(x_i) = y_i * E(x_i). *)
        let e = max_errors in
        let nq = degree + e + 1 in
        let ne = e in
        let cols = nq + ne in
        let st = state () in
        Linalg.Scratch.prepare st.scratch ~rows:m ~cols;
        let a = Linalg.Scratch.matrix st.scratch in
        let b = Linalg.Scratch.rhs st.scratch in
        for i = 0 to m - 1 do
          let row = a.(i) in
          let x = xs.(i) and y = ys.(i) in
          let xp = ref Gf.one in
          for j = 0 to nq - 1 do
            row.(j) <- !xp;
            xp := Gf.mul !xp x
          done;
          let xp = ref Gf.one in
          for j = 0 to ne - 1 do
            row.(nq + j) <- Gf.neg (Gf.mul y !xp);
            xp := Gf.mul !xp x
          done;
          b.(i) <- Gf.mul y (Gf.pow x e)
        done;
        (match Linalg.Scratch.solve st.scratch ~rows:m ~cols with
        | None -> None
        | Some sol ->
            let q = Poly.of_coeffs (Array.sub sol 0 nq) in
            let e_coeffs = Array.make (ne + 1) Gf.zero in
            Array.blit sol nq e_coeffs 0 ne;
            e_coeffs.(ne) <- Gf.one;
            let epoly = Poly.of_coeffs e_coeffs in
            let p, r = Poly.divmod q epoly in
            if not (Poly.is_zero r) || Poly.degree p > degree then None
            else begin
              (* Certify: p must disagree with at most max_errors points. *)
              let errors = ref 0 in
              for i = 0 to m - 1 do
                if not (Gf.equal (Poly.eval p xs.(i)) ys.(i)) then incr errors
              done;
              if !errors <= max_errors then Some p else None
            end)
  end

let decode ~degree ~max_errors points =
  if degree < 0 || max_errors < 0 then invalid_arg "Shamir.decode";
  let pts = Array.of_list points in
  let xs = Array.map fst pts in
  let ys = Array.map snd pts in
  let xs_raw = Array.map Gf.to_int xs in
  decode_pts ~degree ~max_errors xs_raw xs ys

let decode_arrays ~degree ~max_errors xs ys =
  if degree < 0 || max_errors < 0 then invalid_arg "Shamir.decode_arrays";
  if Array.length xs <> Array.length ys then
    invalid_arg "Shamir.decode_arrays: length mismatch";
  decode_pts ~degree ~max_errors (Array.map Gf.to_int xs) xs ys

let reconstruct_robust ~t ~max_errors shares =
  let arr = Array.of_list shares in
  let idx = Array.map (fun s -> s.index) arr in
  if not (distinct_index_array idx) then None
  else begin
    let xs = Array.map Gf.of_int idx in
    let ys = Array.map (fun s -> s.value) arr in
    match decode_pts ~degree:t ~max_errors idx xs ys with
    | None -> None
    | Some p -> Some (Poly.eval p Gf.zero)
  end

let verify_consistent ~t shares =
  match shares with
  | [] -> true
  | _ ->
      let arr = Array.of_list shares in
      let idx = Array.map (fun s -> s.index) arr in
      if not (distinct_index_array idx) then false
      else begin
        let m = Array.length arr in
        let k = min (t + 1) m in
        let head = Array.sub idx 0 k in
        let basis = basis_for head in
        let coeffs = Array.make k Gf.zero in
        for j = 0 to k - 1 do
          let yj = arr.(j).value in
          if not (Gf.equal yj Gf.zero) then begin
            let bj = basis.(j) in
            for d = 0 to k - 1 do
              coeffs.(d) <- Gf.add coeffs.(d) (Gf.mul yj bj.(d))
            done
          end
        done;
        let ok = ref true in
        for i = 0 to m - 1 do
          let x = Gf.of_int idx.(i) in
          let acc = ref Gf.zero in
          for d = k - 1 downto 0 do
            acc := Gf.add (Gf.mul !acc x) coeffs.(d)
          done;
          if not (Gf.equal !acc arr.(i).value) then ok := false
        done;
        !ok
      end

let online_decode_arrays ~t ~max_faults (idx : int array) (ys : Gf.t array) =
  let r = Array.length idx in
  if Array.length ys <> r then invalid_arg "Shamir.online_decode_arrays: length mismatch";
  let xs = Array.map Gf.of_int idx in
  let rec try_e e =
    if e > max_faults || (2 * t) + 1 + e > r then None
    else
      match decode_pts ~degree:t ~max_errors:e idx xs ys with
      | Some p -> Some (Poly.eval p Gf.zero)
      | None -> try_e (e + 1)
  in
  try_e 0

(* ------------------------------------------------------------------ *)
(* Naive reference implementations (the pre-optimisation code paths),
   kept for differential qcheck tests and the cached-vs-naive
   micro-benchmarks. Semantics match the cached kernels except that
   out-of-range indices were not rejected here. *)

module Ref = struct
  let distinct_indices shares =
    let seen = Hashtbl.create 16 in
    List.for_all
      (fun s ->
        if Hashtbl.mem seen s.index then false
        else begin
          Hashtbl.add seen s.index ();
          true
        end)
      shares

  let reconstruct ~t shares =
    if List.length shares < t + 1 || not (distinct_indices shares) then None
    else
      let pts =
        List.filteri (fun i _ -> i <= t) shares
        |> List.map (fun s -> (Gf.of_int s.index, s.value))
      in
      let f = Poly.interpolate pts in
      Some (Poly.eval f Gf.zero)

  let decode ~degree ~max_errors points =
    if degree < 0 || max_errors < 0 then invalid_arg "Shamir.Ref.decode";
    let m = List.length points in
    if m < degree + 1 + (2 * max_errors) then None
    else begin
      let e = max_errors in
      let nq = degree + e + 1 in
      let ne = e in
      let rows =
        List.map
          (fun (x, y) ->
            let row = Array.make (nq + ne) Gf.zero in
            let xp = ref Gf.one in
            for j = 0 to nq - 1 do
              row.(j) <- !xp;
              xp := Gf.mul !xp x
            done;
            let xp = ref Gf.one in
            for j = 0 to ne - 1 do
              row.(nq + j) <- Gf.neg (Gf.mul y !xp);
              xp := Gf.mul !xp x
            done;
            (row, Gf.mul y (Gf.pow x e)))
          points
      in
      let a = Array.of_list (List.map fst rows) in
      let b = Array.of_list (List.map snd rows) in
      match Linalg.solve a b with
      | None -> None
      | Some sol ->
          let q = Poly.of_coeffs (Array.sub sol 0 nq) in
          let e_coeffs = Array.make (ne + 1) Gf.zero in
          Array.blit sol nq e_coeffs 0 ne;
          e_coeffs.(ne) <- Gf.one;
          let epoly = Poly.of_coeffs e_coeffs in
          let p, r = Poly.divmod q epoly in
          if not (Poly.is_zero r) || Poly.degree p > degree then None
          else begin
            let errors =
              List.fold_left
                (fun acc (x, y) -> if Gf.equal (Poly.eval p x) y then acc else acc + 1)
                0 points
            in
            if errors <= max_errors then Some p else None
          end
    end

  let reconstruct_robust ~t ~max_errors shares =
    if not (distinct_indices shares) then None
    else
      let pts = List.map (fun s -> (Gf.of_int s.index, s.value)) shares in
      match decode ~degree:t ~max_errors pts with
      | None -> None
      | Some p -> Some (Poly.eval p Gf.zero)

  let lagrange_at_zero indices =
    let rec dup = function
      | [] -> false
      | x :: rest -> List.mem x rest || dup rest
    in
    if dup indices then invalid_arg "Shamir.Ref.lagrange_at_zero: duplicate index";
    List.map
      (fun j ->
        let gj = Gf.of_int j in
        let coeff =
          List.fold_left
            (fun acc m ->
              if m = j then acc
              else
                let gm = Gf.of_int m in
                Gf.mul acc (Gf.div gm (Gf.sub gm gj)))
            Gf.one indices
        in
        (j, coeff))
      indices
end
