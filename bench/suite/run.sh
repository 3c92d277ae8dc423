#!/bin/sh
# Build the suite and the daemon it drives from this checkout's sources,
# then measure. Run from the root of the checkout:
#
#   sh bench/suite/run.sh --workload bb-uncontended --seed 7 --seconds 10 --trace 0
#
# Arguments go to `bench_suite run` (see README.md). Builds land in
# .bench_build/, run artifacts in .bench_out/.
set -eu
DUNE_CACHE=disabled
export DUNE_CACHE
dune build --root . --build-dir .bench_build \
  ./bench/suite/bench_suite.exe ./bin/bloom_serve.exe 1>&2
exec ./.bench_build/default/bench/suite/bench_suite.exe run "$@"
