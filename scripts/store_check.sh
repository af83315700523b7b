#!/bin/sh
# Durability check (DESIGN.md section 16), run from the repo root by
# `make store-check`:
#
#   1. journal a run, replay it, require the stored-trace verification;
#   2. tear the final record off the store: replay must recover with a
#      warning and exit 0, and time travel must still work;
#   3. an unrecoverable store must exit 1, a usage error 2;
#   4. on each backend (sim, and live, serve's default), SIGKILL a
#      checkpointed `serve --journal` mid-flight, resume it, and diff
#      the deterministic digest against an uninterrupted run —
#      byte-identical regardless of where the kill landed. The live
#      journal's manifest also gets the "inflight" field that older
#      versions wrote, which resume must ignore.
set -u

CTMED=_build/default/bin/ctmed.exe
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "store-check: $1" >&2
  exit 1
}

[ -x "$CTMED" ] || fail "$CTMED not built (run: dune build bin/ctmed.exe)"

# --- 1. journal + verified replay ---------------------------------------
"$CTMED" run coordination --seed 3 --journal "$WORK/run.ctst" >/dev/null \
  || fail "journaled run failed"
"$CTMED" replay "$WORK/run.ctst" >"$WORK/replay.out" 2>&1 \
  || fail "clean replay exited non-zero"
grep -q "verified: replay matches" "$WORK/replay.out" \
  || fail "clean replay did not verify against the stored trace"

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

# --- 4. SIGKILL mid-flight, resume, diff the digest (each backend) -----
for backend in sim live; do
  SERVE_ARGS="--sessions 120 --shards 4 --backend $backend --checkpoint-every 3 -j 2"
  JOURNAL="$WORK/journal-$backend"
  "$CTMED" serve $SERVE_ARGS --journal "$JOURNAL" >"$WORK/serve.out" 2>&1 &
  pid=$!
  sleep 0.5
  kill -9 "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null

  if [ "$backend" = live ]; then
    sed -i 's/"checkpoint_every"/"inflight": 16, "checkpoint_every"/' \
      "$JOURNAL/manifest.json" 2>/dev/null
    grep -q '"inflight"' "$JOURNAL/manifest.json" \
      || fail "$backend: cannot add the old inflight field to the manifest"
  fi

  "$CTMED" serve --resume "$JOURNAL" -j 2 >"$WORK/resume.out" 2>&1 \
    || fail "$backend: resume after SIGKILL failed: $(cat "$WORK/resume.out")"
  resumed=$(sed -n 's/^digest: //p' "$WORK/resume.out")
  [ -n "$resumed" ] || fail "$backend: resume printed no digest"

  "$CTMED" serve $SERVE_ARGS >"$WORK/ref.out" 2>&1 \
    || fail "$backend: uninterrupted reference run failed"
  reference=$(sed -n 's/^digest: //p' "$WORK/ref.out")
  [ -n "$reference" ] || fail "$backend: reference run printed no digest"

  [ "$resumed" = "$reference" ] \
    || fail "$backend: digest diverged after SIGKILL+resume: $resumed vs $reference"
done

echo "store-check: replay verified, torn store recovered, SIGKILL+resume digest identical on sim and live"
