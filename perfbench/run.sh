#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload tenant-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, Go build cache and
# temporary files stay under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
bench="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$bench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
