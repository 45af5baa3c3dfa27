#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lot --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and scratch files all stay under
# .bench_build/ in the current directory ($CARGO_TARGET_DIR when set).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOENV=off
# Keep the go command's telemetry counters inside the build directory too.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$here" && go build -o "$build/perfbench" .)

if [[ -z "${PERFBENCH_COMMIT:-}" ]] && command -v git >/dev/null 2>&1; then
	PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
exec "$build/perfbench" "$@"
