#!/usr/bin/env bash
# Run-to-run spread of the end-to-end metrics, the way BENCHMARK.json's
# bounds are judged.
#
#   bash bench/workloads/spread.sh N [SECONDS] [PREVIOUS.jsonl]
#
# Runs every workload N times in fresh processes with seeds 1..N,
# reversing the workload order on every other round, and appends each
# run's record to results/spread-<time>.jsonl. Prints, per workload and
# metric, the median, quartiles (Python's statistics.quantiles, n=4),
# min/max and the quartile spread as a share of the median, and marks
# spreads above a third of their bound. Exits 1 if a run fails, or a
# spread other than setup_s exceeds its bound. Given the file of an
# earlier set, it also exits 1 if a count (msgs_per_session, failures,
# the deterministic digest) differs for the same workload and seed, or a
# median got worse by more than its bound.
set -euo pipefail
cd "$(dirname "$0")/../.."
n=${1:?usage: spread.sh N [SECONDS] [PREVIOUS.jsonl]}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
prev=${3:-}
mkdir -p results
out="results/spread-$(date +%Y%m%d-%H%M%S).jsonl"
mapfile -t names < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')

for ((i = 1; i <= n; i++)); do
  order=("${names[@]}")
  if ((i % 2 == 0)); then
    order=()
    for ((j = ${#names[@]} - 1; j >= 0; j--)); do order+=("${names[j]}"); done
  fi
  for w in "${order[@]}"; do
    echo "spread: round $i/$n $w" >&2
    if res=$(bash bench/workloads/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0); then
      # the record line precedes the result line
      printf '%s\n' "$res" | tail -n 2 | sed -n 1p >>"$out"
    else
      echo "{\"workload\": \"$w\", \"seed\": $i, \"error\": true}" >>"$out"
    fi
  done
done
echo "spread: records in $out" >&2

python3 - "$out" "$prev" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
def load(path):
    return [json.loads(l) for l in open(path) if l.strip()]
runs = load(sys.argv[1])
prev = load(sys.argv[2]) if sys.argv[2] else []
ok = True

def value(r, m):
    return r["metrics"][m]["value"]

for r in runs:
    if r.get("error") or r.get("failed_frac", 1) != 0:
        print(f"FAIL {r['workload']} seed {r['seed']}: run failed")
        ok = False
runs = [r for r in runs if not r.get("error")]

def summary(rs):
    out = {}
    for m in metrics:
        vs = [value(r, m["name"]) for r in rs]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        out[m["name"]] = (med, q1, q3, min(vs), max(vs), (q3 - q1) / med)
    return out

for w in bench["workloads"]:
    rs = [r for r in runs if r["workload"] == w["name"]]
    if not rs:
        continue
    print(f"{w['name']} ({len(rs)} runs, {rs[0]['sessions']} sessions/run)")
    print(f"  {'metric':20} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} {'spread':>8} {'bound':>6}")
    s = summary(rs)
    for m in metrics:
        med, q1, q3, lo, hi, spread = s[m["name"]]
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"]:
            flag = "  <- FAIL: spread above bound"
            ok = False
        elif m["name"] != "setup_s" and spread > m["bound"] / 3:
            flag = "  <- above bound/3"
        print(f"  {m['name']:20} {med:14.6g} {q1:14.6g} {q3:14.6g} {lo:14.6g} {hi:14.6g} {spread:8.4f} {m['bound']:6.3f}{flag}")
    ps = [r for r in prev if r["workload"] == w["name"] and not r.get("error")]
    if ps:
        p = summary(ps)
        for m in metrics:
            old, new = p[m["name"]][0], s[m["name"]][0]
            worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
            if worse > m["bound"]:
                print(f"  FAIL {m['name']}: median {old:.6g} -> {new:.6g} is {worse:.2%} worse (bound {m['bound']:.1%})")
                ok = False
        by_seed = {r["seed"]: r for r in ps}
        for r in rs:
            q = by_seed.get(r["seed"])
            if q and q["sessions"] == r["sessions"]:
                for key in ("digest", "failed_frac"):
                    if q[key] != r[key]:
                        print(f"  FAIL seed {r['seed']}: {key} differs from the earlier set")
                        ok = False
                if value(q, "msgs_per_session") != value(r, "msgs_per_session"):
                    print(f"  FAIL seed {r['seed']}: msgs_per_session differs from the earlier set")
                    ok = False
print("spread: ok" if ok else "spread: FAILED")
sys.exit(0 if ok else 1)
EOF
