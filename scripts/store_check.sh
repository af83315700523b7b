#!/bin/sh
# Durability check (DESIGN.md section 16), run from the repo root by
# `make store-check`:
#
#   1. journal a run, require that it stored trace events, replay it,
#      require the stored-trace verification; the same for a faulted run
#      (burnt decisions and fallbacks in the journal) and for that run
#      cut short by --fuel (a journal ending on a watchdog entry), plus
#      time travel into the faulted journal;
#   2. tear the final record off the store: replay must recover with a
#      warning and exit 0, and time travel must still work;
#   3. an unrecoverable store must exit 1, a usage error 2;
#   4. SIGKILL a checkpointed `serve --journal` as soon as its first
#      shard checkpoint lands, require some shard to be unfinished,
#      give the manifest the "backend" and "inflight" fields an older
#      live journal carried (resume ignores both), resume, and diff the
#      deterministic digest against an uninterrupted run.
set -u

CTMED=_build/default/bin/ctmed.exe
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "store-check: $1" >&2
  exit 1
}

[ -x "$CTMED" ] || fail "$CTMED not built (run: dune build bin/ctmed.exe)"

# A finished journaled run stores metadata + one entry per decision +
# its trace events + metrics, as `ctmed run --journal` reports in its
# "journaled D decisions (R records)" line. A run whose config stopped
# recording would store no event and leave replay's trace cross-check
# nothing to compare, so require R > D + 2.
require_events() {
  counts=$(sed -n 's/^journaled \([0-9]*\) decisions (\([0-9]*\) records).*/\1 \2/p' "$2")
  [ -n "$counts" ] || fail "$1: no journaled line in the run's output"
  set -- "$1" $counts
  [ "$3" -gt $(($2 + 2)) ] \
    || fail "$1: the journaled run stored no trace events ($2 decisions, $3 records)"
}

# --- 1. journal + verified replay ---------------------------------------
"$CTMED" run coordination --seed 3 --journal "$WORK/run.ctst" >"$WORK/run.log" \
  || fail "journaled run failed"
require_events run "$WORK/run.log"
"$CTMED" replay "$WORK/run.ctst" >"$WORK/replay.out" 2>&1 \
  || fail "clean replay exited non-zero"
grep -q "verified: replay matches" "$WORK/replay.out" \
  || fail "clean replay did not verify against the stored trace"

FAULTS="--faults dup=0.1,delay=0.2,crash=0.1"
"$CTMED" run coordination --seed 3 $FAULTS --journal "$WORK/faults.ctst" >"$WORK/faults.log" \
  || fail "journaled faulted run failed"
"$CTMED" run coordination --seed 3 $FAULTS --fuel 800 --journal "$WORK/fuel.ctst" \
  >"$WORK/fuel.log" || fail "journaled fuel-limited run failed"
for store in faults fuel; do
  require_events "$store" "$WORK/$store.log"
  "$CTMED" replay "$WORK/$store.ctst" >"$WORK/$store.out" 2>&1 \
    || fail "$store replay exited non-zero: $(cat "$WORK/$store.out")"
  grep -q "verified: replay matches" "$WORK/$store.out" \
    || fail "$store replay did not verify against the stored trace"
done
"$CTMED" replay "$WORK/faults.ctst" --at 100 >"$WORK/at.out" 2>&1 \
  || fail "time travel into the faulted store failed"
grep -q "^replayed 100/" "$WORK/at.out" \
  || fail "time travel did not stop after 100 decisions: $(head -1 "$WORK/at.out")"

# --- 2. torn final record: recover, warn, exit 0 ------------------------
truncate -s -3 "$WORK/run.ctst" || fail "cannot tear the store"
"$CTMED" replay "$WORK/run.ctst" >/dev/null 2>"$WORK/torn.err"
st=$?
[ "$st" -eq 0 ] || fail "torn-store replay should recover and exit 0, got $st"
grep -q "torn final record" "$WORK/torn.err" \
  || fail "no recovery warning for the torn store"
"$CTMED" replay "$WORK/run.ctst" --at 5 >/dev/null 2>&1 \
  || fail "time travel on the recovered store failed"

# --- 3. exit conventions ------------------------------------------------
printf 'CTSTgarbage-not-a-store' >"$WORK/bad.ctst"
"$CTMED" replay "$WORK/bad.ctst" >/dev/null 2>&1
st=$?
[ "$st" -eq 1 ] || fail "unrecoverable store should exit 1, got $st"
"$CTMED" replay >/dev/null 2>&1
st=$?
[ "$st" -eq 2 ] || fail "missing FILE should exit 2, got $st"

# --- 4. SIGKILL mid-flight, resume, diff the digest ---------------------
SERVE_ARGS="--sessions 120 --shards 4 --checkpoint-every 3 -j 2"
JOURNAL="$WORK/journal"
"$CTMED" serve $SERVE_ARGS --journal "$JOURNAL" >"$WORK/serve.out" 2>&1 &
pid=$!
# kill at the first checkpoint: poll every 0.05 s, give up after 10 s
polls=0
until ls "$JOURNAL"/shard-*.json >/dev/null 2>&1; do
  polls=$((polls + 1))
  if [ "$polls" -gt 200 ]; then
    kill -9 "$pid" 2>/dev/null
    fail "no shard checkpoint after 10 s: $(cat "$WORK/serve.out")"
  fi
  sleep 0.05
done
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null

# a kill that lands after every checkpointed shard finished tests nothing
unfinished=0
for shard in "$JOURNAL"/shard-*.json; do
  hi=$(sed -n 's/^  "hi": \([0-9]*\),$/\1/p' "$shard")
  next=$(sed -n 's/^  "next": \([0-9]*\),$/\1/p' "$shard")
  [ -n "$hi" ] && [ -n "$next" ] || fail "cannot read hi/next from $shard"
  [ "$next" -lt "$hi" ] && unfinished=1
done
[ "$unfinished" -eq 1 ] \
  || fail "SIGKILL landed after every checkpointed shard had finished"

sed -i 's/"checkpoint_every"/"backend": "live", "inflight": 16, "checkpoint_every"/' \
  "$JOURNAL/manifest.json"
grep -q '"backend": "live"' "$JOURNAL/manifest.json" \
  && grep -q '"inflight": 16' "$JOURNAL/manifest.json" \
  || fail "cannot add the old live journal's fields to the manifest"

"$CTMED" serve --resume "$JOURNAL" -j 2 >"$WORK/resume.out" 2>&1 \
  || fail "resume after SIGKILL failed: $(cat "$WORK/resume.out")"
resumed=$(sed -n 's/^digest: //p' "$WORK/resume.out")
[ -n "$resumed" ] || fail "resume printed no digest"

"$CTMED" serve $SERVE_ARGS >"$WORK/ref.out" 2>&1 \
  || fail "uninterrupted reference run failed"
reference=$(sed -n 's/^digest: //p' "$WORK/ref.out")
[ -n "$reference" ] || fail "reference run printed no digest"

[ "$resumed" = "$reference" ] \
  || fail "digest diverged after SIGKILL+resume: $resumed vs $reference"

echo "store-check: replay verified, torn store recovered, SIGKILL+resume digest identical"
