#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the program from the
# checkout's source, then run it with the driver's arguments. Everything the
# build and the run write — Go's build cache included — stays under
# .bench_build in the checkout. Run from the root of the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
  echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/gotmp" "$build/data"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/spocus-bench" ./benchmark
exec "$build/spocus-bench" -tmp "$build/data" "$@"
