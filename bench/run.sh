#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it. Run it
# from the repository root, e.g.
#
#   bash bench/run.sh --workload ingest-drift --seed 1 --seconds 10 --trace 0
#
# Every file the build or the run writes (Go build cache, binary, temp
# dirs, span dumps) stays under .bench_build/ in the current directory.
# Without the repository around bench/ the build fails and the script
# exits non-zero before printing any result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$build/hbn-bench" .
exec "$build/hbn-bench" "$@"
