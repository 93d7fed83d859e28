#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it with the given
# arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload mixed_live --seed 42 --seconds 15 --trace 0
#
# The Go build cache, the build's temporary files and the binary all live
# under .bench_build/, so nothing is read or written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
