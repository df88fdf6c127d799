#!/usr/bin/env bash
# Builds the benchmark and zmsq_server from source, then runs the
# benchmark with the given arguments, e.g.
#   bash benchmark/run.sh --workload handoff --seed 1 --seconds 10 --trace 0
# Run from anywhere; it works from the repository root. The build stays
# in the checkout: dune's shared cache is off.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/zmsq_bench.exe ./bin/zmsq_server.exe >&2
exec ./_build/default/benchmark/zmsq_bench.exe "$@"
