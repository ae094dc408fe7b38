#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it
# with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload kernel --seed 1 --seconds 15 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout. Build output goes to stderr, so the
# harness's result is still the last line of stdout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
