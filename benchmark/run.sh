#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ (Go's build cache included, so nothing is written
# outside the checkout) and runs it with the caller's arguments. Building
# happens here, before any clock the benchmark reports starts.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bin/benchmark" .
cd "$root"
exec "$build/bin/benchmark" "$@"
