#!/usr/bin/env bash
# Builds the load benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash loadbench/run.sh --workload uniform-gnm --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go caches and the benchmark's scratch files
# (containers, span dumps) all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C loadbench build -o "$out/loadbench" .
exec "$out/loadbench" --work-dir "$out/work" "$@"
