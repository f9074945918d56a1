#!/usr/bin/env bash
# Build the benchmark and the chfc daemon from this checkout, then run
# benchmark.exe.  With no subcommand it runs `bench`, one workload:
#
#   bash perf/run.sh --workload paper-micro --seed 0 --seconds 30 --trace 0
#   bash perf/run.sh run --seed 0 --out _perf/set-a
#   bash perf/run.sh compare _perf/set-a/result.json _perf/set-b/result.json
#
# Build output goes to stderr, so the last stdout line stays the result.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perf/run.sh: the compiler sources (dune-project, lib/, bin/) are not here" >&2
  exit 2
fi

# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perf/benchmark.exe ./bin/chfc.exe 1>&2

case "${1:-}" in
  bench | run | compare | golden) ;;
  *) set -- bench "$@" ;;
esac
exec ./_build/default/perf/benchmark.exe "$@"
