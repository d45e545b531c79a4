#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash secobench/run.sh --workload topk-stream --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the span dumps stay under
# .bench_build in the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/secobench" .
exec "$out/secobench" "$@"
