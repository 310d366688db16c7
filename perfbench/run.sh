#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload direct --seed 1 --seconds 30 --trace 0
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
