#!/usr/bin/env bash
# Builds the benchmark and the rtrbenchd daemon from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload service --seed 3 --seconds 10 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, daemon data,
# traces) stays under .bench_build/ at the checkout root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local

(cd "$root" && go build -o "$out/rtrbenchd" ./cmd/rtrbenchd) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

cd "$root"
exec "$out/perfbench" -daemon "$out/rtrbenchd" -out "$out" "$@"
