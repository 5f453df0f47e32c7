#!/usr/bin/env bash
# bench.sh — run the read-path, sweep, preconditioning, ssd.New, Zipf
# set-up, event-engine, ssd.Run, workload-generation and CSV-sink benchmarks and
# record the results as JSON, starting the repository's performance
# trajectory.
#
# Usage:
#   scripts/bench.sh [output.json] [benchtime]
#
# Defaults: the next BENCH_PR<n>.json after the highest one committed in
# the repository root (BENCH_PR1.json when none exist), -benchtime 5x. The
# JSON maps each benchmark to {ns_per_op, bytes_per_op, allocs_per_op};
# custom metrics (mean_nrr, workers, …) are ignored. An "_env" entry
# records the machine the numbers came from: CPU model, nproc, GOMAXPROCS
# and Go version. Absolute numbers compare only between runs with the same
# "_env"; across machines, compare ratios within one file.
set -euo pipefail

cd "$(dirname "$0")/.."

# Without an explicit output, continue the BENCH_PR<n>.json trajectory one
# past the highest number present, so the default never overwrites a
# committed baseline.
next_bench_out() {
  local latest
  latest=$(ls BENCH_PR*.json 2>/dev/null | sed 's/[^0-9]*//g' | sort -n | tail -1)
  echo "BENCH_PR$((${latest:-0} + 1)).json"
}

out="${1:-$(next_bench_out)}"
macrotime="${2:-5x}"

# Nanosecond-scale benchmarks need a time budget to converge; whole-cell
# benchmarks need a small fixed iteration count to stay affordable.
micro=$(go test . -run NONE \
  -bench 'BenchmarkReadPath|BenchmarkVthModelRead' \
  -benchtime 2s -benchmem)
macro=$(go test . ./internal/experiments ./internal/ftl ./internal/rng ./internal/sim ./internal/ssd ./internal/workload -run NONE \
  -bench 'BenchmarkSweepCell|BenchmarkSweepSerial|BenchmarkSweepParallel|BenchmarkSweepTemperatureGrid|BenchmarkSweepQLCGrid|BenchmarkSSDSimulationThroughput|BenchmarkPrecondition|BenchmarkNew|BenchmarkEngine|BenchmarkRun|BenchmarkGenerate|BenchmarkCSVSink' \
  -benchtime "$macrotime" -benchmem)
raw="$micro
$macro"

echo "$raw"

# Machine metadata, JSON-escaped (backslashes and quotes). It reaches awk
# through the environment, which, unlike -v, keeps backslashes as they are.
json_escape() { sed 's/\\/\\\\/g; s/"/\\"/g'; }
cpu=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
export BENCH_CPU BENCH_NPROC BENCH_GOMAXPROCS BENCH_GO
BENCH_CPU=$(printf '%s' "${cpu:-$(uname -m)}" | json_escape)
BENCH_NPROC=$(nproc)
BENCH_GOMAXPROCS=${GOMAXPROCS:-$BENCH_NPROC}
BENCH_GO=$(go version | json_escape)

echo "$raw" | awk '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix if present
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")     ns = $(i-1)
      if ($i == "B/op")      bytes = $(i-1)
      if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns != "") {
      if (n++) printf ",\n"
      printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
    }
  }
  BEGIN {
    printf "{\n  \"_env\": {\"cpu\": \"%s\", \"nproc\": %s, \"gomaxprocs\": %s, \"go\": \"%s\"}", \
      ENVIRON["BENCH_CPU"], ENVIRON["BENCH_NPROC"], ENVIRON["BENCH_GOMAXPROCS"], ENVIRON["BENCH_GO"]
    n = 1
  }
  END   { printf "\n}\n" }
' >"$out"

echo "wrote $out"
