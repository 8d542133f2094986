#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload dnn-flights --seed 1 --seconds 15 --trace 0
#
# The compiler cache, the binary and the traced run's trace files stay under
# .bench_build at the repository root; nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	GOMODCACHE="$out/go-path/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
