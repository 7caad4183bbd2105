#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# With --workload it runs that workload (tune_cold, tune_warm, run_cache or
# run_dram) and the last line of stdout is its result: the end-to-end
# metrics, or with --trace 1 the per-layer metrics, whose Perfetto trace and
# layers.json land in .bench_build/e2e/trace/<workload>/. Without
# --workload it runs all four in turn. The exit code is non-zero when the
# build fails or any validity check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build/e2e"
workload=""
seed=1
seconds=10
trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
case "$trace" in
  0|1) ;;
  *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac

# The build, the kernel compiler and the benchmark write only inside the
# checkout. Build output goes to stderr so that stdout ends with the result.
# Once configured, the build tree re-runs CMake itself when a CMakeLists.txt
# changes.
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"
{
  if [ ! -f "$out/build/CMakeCache.txt" ]; then
    cmake -S "$root/bench/e2e" -B "$out/build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$out/build" -j "$(nproc)" --target an5d_bench
} >&2

run_one() {
  local args=(--workload "$1" --seed "$seed" --seconds "$seconds"
              --work "$out/work")
  if [ "$trace" = 1 ]; then
    args+=(--trace "$out/trace/$1")
  fi
  "$out/build/an5d_bench" "${args[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload"
else
  status=0
  for w in tune_cold tune_warm run_cache run_dram; do
    run_one "$w" || status=1
  done
  exit "$status"
fi
