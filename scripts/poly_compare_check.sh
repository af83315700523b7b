#!/bin/sh
# Grep guard against polymorphic compare / hash creeping back into the
# hot-path libraries (DESIGN.md §17). The structural fallbacks
# (caml_compare / caml_hash) walk heap blocks per call and have twice
# been the dominant cost in a profile (Games.Dist, Step.state_hash,
# the engine's profile table); after each audit we pin the fix here.
#
# Scope: lib/engine, lib/store, lib/wire, lib/mpc and lib/agreement/aba.ml
# — the per-session / per-record / per-delivery hot paths. The rest of
# lib/agreement stays out by name: coin.ml's polymorphic Hashtbl.hash over
# (seed, instance, round, "coin") *defines* the common-coin values, so
# replacing it would change every coin and re-baseline every digest.
# Checks:
#   1. no bare `compare` passed as a function (use Int.compare /
#      String.compare / a monomorphic cmp);
#   2. no Stdlib.compare / Stdlib.( = ) / Hashtbl.hash;
#   3. no direct generic Hashtbl use (Hashtbl.create/find/replace/...)
#      — use a Hashtbl.Make functor instance keyed monomorphically.
#      (Hashtbl.Make itself and Hashtbl.hash_param in explicitly
#      deep-digest code are allowed.)
set -eu
cd "$(dirname "$0")/.."

scope="lib/engine lib/store lib/wire lib/mpc lib/agreement/aba.ml"

fail=0
scan() {
    pattern="$1"; msg="$2"
    # strip OCaml comment lines to keep docs free to mention the names
    hits=$(grep -rnE "$pattern" $scope --include='*.ml' \
        | grep -vE '^\s*[^:]*:[0-9]+:\s*\(\*' | grep -vE '\(\*.*\*\)\s*$' || true)
    if [ -n "$hits" ]; then
        echo "poly-compare guard: $msg" >&2
        echo "$hits" >&2
        fail=1
    fi
}

scan '(^|[^.A-Za-z_])compare[[:space:]]*\)|List\.sort[[:space:]]+compare|Array\.sort[[:space:]]+compare|\(compare\)' \
    'bare polymorphic `compare` used as a function'
scan 'Stdlib\.compare|Stdlib\.\(=\)|Hashtbl\.hash[^_]' \
    'Stdlib.compare / polymorphic Hashtbl.hash'
scan 'Hashtbl\.(create|add|find|find_opt|replace|remove|mem|iter|fold|length|reset|clear)[[:space:]]' \
    'generic Hashtbl operations on a hot path (use Hashtbl.Make keyed monomorphically)'

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "poly-compare guard: $scope clean"
