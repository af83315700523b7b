type dist = { mean : float; p50 : int; p90 : int; p99 : int; max : int }

type summary = { runs : int; sent : dist; delivered : dist; steps : dist }

(* Bounded-memory aggregate: the old per_run list kept one tuple per
   run (O(runs) memory, O(n log n) sort per summary — pathological at
   10^6+ sessions). Each per-run axis now feeds a fixed-size
   deterministic histogram; small run counts stay on Hist's exact
   nearest-rank path, so existing tables are byte-identical. *)
type t = {
  mutable total : Metrics.t;
  mutable n : int;
  sent : Hist.t;
  delivered : Hist.t;
  steps : Hist.t;
}

let create () =
  { total = Metrics.zero; n = 0; sent = Hist.create (); delivered = Hist.create (); steps = Hist.create () }

(* Scrub-and-reuse: a fresh aggregate without reallocating the three
   histograms' bucket arrays. *)
let reset t =
  t.total <- Metrics.zero;
  t.n <- 0;
  Hist.reset t.sent;
  Hist.reset t.delivered;
  Hist.reset t.steps

let add t (m : Metrics.t) =
  t.total <- Metrics.merge t.total m;
  (* runless records (e.g. Metrics.retries) adjust totals without
     entering the per-run percentile distributions *)
  if m.Metrics.runs > 0 then begin
    Hist.add t.sent (Metrics.sent_total m);
    Hist.add t.delivered (Metrics.delivered_total m);
    Hist.add t.steps m.Metrics.steps
  end;
  t.n <- t.n + m.Metrics.runs

let add_run = add
let count t = t.n
let total t = t.total

let merge_into ~dst src =
  dst.total <- Metrics.merge dst.total src.total;
  dst.n <- dst.n + src.n;
  Hist.merge_into ~dst:dst.sent src.sent;
  Hist.merge_into ~dst:dst.delivered src.delivered;
  Hist.merge_into ~dst:dst.steps src.steps

let dist_of h =
  {
    mean = Hist.mean h;
    p50 = Hist.percentile h 50;
    p90 = Hist.percentile h 90;
    p99 = Hist.percentile h 99;
    max = Hist.max_value h;
  }

let summary t =
  {
    runs = t.n;
    sent = dist_of t.sent;
    delivered = dist_of t.delivered;
    steps = dist_of t.steps;
  }

let summary_repr s =
  Printf.sprintf
    "runs=%d sent[mean=%.2f p50=%d p90=%d p99=%d max=%d] steps[p50=%d p90=%d max=%d]" s.runs
    s.sent.mean s.sent.p50 s.sent.p90 s.sent.p99 s.sent.max s.steps.p50 s.steps.p90
    s.steps.max

(* Checkpoint serialization: the full aggregate state (not just the
   summary), so a resumed shard keeps folding where it left off. *)
let to_json t =
  Json.Obj
    [
      ("total", Metrics.to_json t.total);
      ("n", Json.Int t.n);
      ("sent", Hist.to_json t.sent);
      ("delivered", Hist.to_json t.delivered);
      ("steps", Hist.to_json t.steps);
    ]

let of_json j =
  let ( let* ) = Option.bind in
  let* total = Option.bind (Json.member "total" j) Metrics.of_json in
  let* n = Option.bind (Json.member "n" j) Json.to_int_opt in
  let* sent = Option.bind (Json.member "sent" j) Hist.of_json in
  let* delivered = Option.bind (Json.member "delivered" j) Hist.of_json in
  let* steps = Option.bind (Json.member "steps" j) Hist.of_json in
  if n < 0 then None else Some { total; n; sent; delivered; steps }
