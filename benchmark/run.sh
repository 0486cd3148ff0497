#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build and the run write (Go build cache, binary, checkpoints, span files)
# under .bench_build/ in the directory it is started from — the checkout
# root. Arguments are passed through to the benchmark binary.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
# The commit stamp comes from the build's VCS info; a checkout that is not
# (or is inside someone else's) git repository builds without it.
go build -o "$build/benchmark" ./benchmark 2>/dev/null ||
	go build -buildvcs=false -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
