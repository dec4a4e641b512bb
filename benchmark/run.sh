#!/usr/bin/env bash
# Builds the paper-workload benchmark from source and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash benchmark/run.sh --workload table3 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so a run reads and writes nothing
# outside the checkout. The first run compiles the standard library into that
# cache (about 20 s on a 2-core machine); later runs only relink when a source
# file changed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOFLAGS=""
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

go -C "$root/benchmark" build -o "$build/paperbench" .
exec "$build/paperbench" "$@"
