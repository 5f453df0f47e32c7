#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it from
# the checkout root, passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload fig14-sweep --seed 7 --seconds 20 --trace 0
#
# The build cache, temporary files, binary and side outputs all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
