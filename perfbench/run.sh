#!/bin/sh
# Builds bdprint, bdprintd and the benchmark from source in the current
# checkout, then runs the benchmark with the given arguments:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -e
dune build --root . --display quiet \
  ./bin/bdprint.exe ./bin/bdprintd.exe ./perfbench/src/bench.exe >&2
exec ./_build/default/perfbench/src/bench.exe "$@"
