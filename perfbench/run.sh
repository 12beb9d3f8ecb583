#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload fanout-1000 --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout of the repro module. Build outputs and
# the Go build cache stay in .bench_build/ under that root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root holds no checkout of the repro module to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
