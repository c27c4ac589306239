#!/usr/bin/env bash
# Builds the served-request benchmark from source and runs it. Run from
# the repository root; all arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload http-rmc1 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
if [ -z "${PERFBENCH_COMMIT:-}" ] && commit="$(git rev-parse HEAD 2>/dev/null)"; then
	export PERFBENCH_COMMIT="$commit"
fi
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans" "$@"
