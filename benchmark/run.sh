#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's scratch files all stay under .bench_build in that directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
