#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the Go toolchain writes stays under .bench_build/ in the
# checkout; the arguments go to the benchmark unchanged.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/iotsan-benchmark" .
exec "$build/iotsan-benchmark" "$@"
