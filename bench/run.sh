#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash bench/run.sh --workload author --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" --root "$root" "$@"
