#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ./benchmark from source and
# runs it with the caller's arguments. Everything the build and the run
# write — Go's build cache, the binary, temp stores and spans — stays
# under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" TMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
