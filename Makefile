# Convenience targets; everything is plain dune underneath.

all: build lint check par-check chaos throughput-check store-check alloc-check perf-gate

build:
	dune build @all

# Differential parallel-vs-sequential check: the experiment engine must
# produce byte-identical tables at any -j (see DESIGN.md section 9).
# Runs the pool/domain-safety test binary plus a bench-level table diff.
par-check:
	dune exec test/test_parallel.exe -- test pool
	dune exec test/test_parallel.exe -- test lint-under-j
	dune exec bench/main.exe -- smoke e2 e3 e7 -j 4 diff

# Static + dynamic analysis: typecheck everything, keep polymorphic
# compare/hash off the hot paths (DESIGN.md section 17), keep one
# decision loop (lib/transport and lib/engine never call a scheduler's
# choose; they run sessions through Runner.run, DESIGN.md section 14),
# keep the Live backend to its one caller (no .ml under lib/ or bin/
# outside lib/transport and lib/engine names it: only the served-session
# benchmark's coord5-live workload runs Live, and the benchmark change
# that drops that workload deletes it, DESIGN.md section 14), keep all
# timing in lib/, bin/ and bench/ on the monotonic clock (no
# Unix.gettimeofday: a clock step would corrupt a measured duration, a
# watchdog or a perf-gate number), run the analyzers
# over the bundled examples (non-zero exit on error findings), and the
# analysis test suite (race detector vs Sim.Explore ground truth).
lint:
	dune build @check
	scripts/poly_compare_check.sh
	@if grep -rnE --include='*.ml' '\.choose\b|\bchoose[[:space:]]+~' lib/transport lib/engine; then \
	  echo "lint: lib/transport or lib/engine calls a scheduler's choose (run sessions through Runner.run)" >&2; \
	  exit 1; \
	fi
	@if grep -rnE --include='*.ml' 'Transport\.Live|Backend\.Live' lib bin | grep -vE '^lib/(transport|engine)/'; then \
	  echo "lint: only lib/transport and lib/engine may name the Live backend (run sessions on the simulator; Live stays for the served-session benchmark's coord5-live workload until the benchmark change removes it for good)" >&2; \
	  exit 1; \
	fi
	@if grep -rn --include='*.ml' 'Unix\.gettimeofday' lib bin bench; then \
	  echo "lint: lib/, bin/ or bench/ reads Unix.gettimeofday (time with the monotonic Obs.Metrics.now / Runner.now)" >&2; \
	  exit 1; \
	fi
	dune exec bin/ctmed.exe -- lint
	dune exec test/test_analysis.exe -- -c

# Chaos suite (DESIGN.md section 11): fault-injection sweep at the smoke
# budget, byte-identical across -j (diff), then the graceful-degradation
# path — a deliberately hung trial must yield a DEGRADED row and exit
# code 3, never a sweep abort.
chaos:
	dune exec bench/main.exe -- smoke chaos -j 4 diff
	@dune exec bench/main.exe -- smoke hang >/dev/null 2>&1; \
	  st=$$?; \
	  if [ $$st -ne 3 ]; then \
	    echo "chaos: hung run should exit 3 (degraded), got $$st" >&2; exit 1; \
	  fi; \
	  echo "chaos: hung run degraded with exit 3, as required"

# Model checker over the fixture catalog (DESIGN.md section 13): DPOR
# verdicts for the quorum-vote fixtures, the relaxed mediator game
# (STOP-batch atomicity) and the section 6.4 coalition stall; exits
# non-zero when any verdict contradicts its expectation. The backend
# flags are exclusive: both together must fail to parse (cmdliner's
# exit 124) rather than one silently overriding the other.
check:
	dune exec bin/ctmed.exe -- check
	@dune exec bin/ctmed.exe -- check --dpor --naive >/dev/null 2>&1; \
	  st=$$?; \
	  if [ $$st -ne 124 ]; then \
	    echo "check: --dpor --naive should fail to parse with exit 124, got $$st" >&2; exit 1; \
	  fi; \
	  echo "check: --dpor --naive rejected with exit 124, as required"

# Sharded engine check (DESIGN.md section 15): the THROUGHPUT table —
# whose rows are digest comparisons of the sharded engine against a
# sequential reference across shard shapes — must itself be
# byte-identical at any -j, and serve at 4 shards must reproduce the
# sequential unsharded non-recycled aggregate byte-for-byte (--smoke).
throughput-check:
	dune exec bench/main.exe -- smoke throughput -j 4 diff
	dune exec bin/ctmed.exe -- serve --smoke --shards 4 --jobs 2

# Durability check (DESIGN.md section 16): journal a run, replay it
# (including after tearing the final record off the store), then SIGKILL
# a checkpointed `serve --journal` as soon as its first shard checkpoint
# lands, require an unfinished shard, give the manifest the fields an
# older live journal carried, resume it, and diff the deterministic
# digest against an uninterrupted run.
store-check:
	dune build bin/ctmed.exe
	scripts/store_check.sh

# Allocation budget (DESIGN.md section 17): run the throughput
# experiment with the perf gate and fail if words/session (GC words
# allocated per session, recycled setup included) drifts above the
# committed baseline — the number that catches recycling quietly
# breaking. Also checks the recycled-vs-fresh digest rows in the table.
alloc-check:
	dune exec bench/main.exe -- smoke throughput -j 1 --baseline BENCH_smoke.json --tolerance 0.5

# Perf regression gate: rerun the smoke budget sequentially and compare
# per-experiment wall-clock plus the kernel micro-benchmark estimates
# against the committed baseline (BENCH_smoke.json). Exits 1 if anything
# is slower than baseline * (1 + tolerance); being faster always passes.
# Regenerate the baseline with `make bench-json` on a quiet machine.
perf-gate:
	dune exec bench/main.exe -- smoke -j 1 --baseline BENCH_smoke.json --tolerance 0.5

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-full:
	dune exec bench/main.exe -- full

bench-csv:
	dune exec bench/main.exe -- csv

# Machine-readable metrics: run the smoke budget in json mode (exits
# non-zero if a message count exceeds its O(nNc) bound), then check that
# BENCH_smoke.json actually carries every experiment plus the fit.
bench-json:
	dune exec bench/main.exe -- smoke json
	@for key in e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 a1 throughput complexity model_check wire \
	  sessions_per_min words_per_session; do \
	  grep -q "\"$$key\"" BENCH_smoke.json \
	    || { echo "bench-json: BENCH_smoke.json is missing \"$$key\"" >&2; exit 1; }; \
	done
	@echo "bench-json: BENCH_smoke.json ok"

examples:
	dune exec examples/quickstart.exe
	dune exec examples/byzantine_agreement.exe
	dune exec examples/correlated_equilibrium.exe
	dune exec examples/punishment_pitfall.exe
	dune exec examples/mediator_tour.exe

clean:
	dune clean

.PHONY: all build lint check par-check chaos throughput-check store-check alloc-check perf-gate test test-verbose bench bench-full bench-csv bench-json examples clean
