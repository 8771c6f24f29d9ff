#!/bin/bash
# BENCHMARK.json's command: build the benchmark from source and run it,
# reading and writing only inside the checkout. The build cache and the
# binary live in .bench_build at the root of the checkout (git-ignored),
# so the first run in a fresh checkout compiles and the later ones start
# at once; `go run ./benchmark` does the same with the user's own cache.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
