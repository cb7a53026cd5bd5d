#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload lto-t10 --seed 19 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seconds 10
#
# The build cache, the binary, determinism records and traces all live
# under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$here" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --state "$out/perfbench-state" "$@"
