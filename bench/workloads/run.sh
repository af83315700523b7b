#!/usr/bin/env bash
# Build ctbench from this checkout's sources, then run it:
#   bash bench/workloads/run.sh --workload W --seed S --seconds T --trace 0|1
# The last stdout line is the result object; build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a full checkout (no dune-project or lib/)" >&2
  exit 2
fi
# keep the build inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/workloads/ctbench.exe >&2
exec ./_build/default/bench/workloads/ctbench.exe "$@"
