#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from anywhere:
#
#   bash bench/run.sh --workload build-er192-k2 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary) stays
# in .bench_build/ at the repository root, so a run touches nothing outside the
# checkout. The benchmark itself runs from bench/, where it reads testdata/ and
# writes traces to out/.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build_dir="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$build_dir/tmp"

export GOCACHE="$build_dir/go-cache"
export GOMODCACHE="$build_dir/go-mod"
export GOTMPDIR="$build_dir/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

cd "$bench_dir"
go build -o "$build_dir/lowmemroute-bench" .
exec "$build_dir/lowmemroute-bench" "$@"
