#!/usr/bin/env sh
# Build (if needed) and run the benchmark suite, collecting machine-readable
# results as BENCH_*.json in the output directory.
#
# Usage: scripts/run_bench.sh [build-dir] [out-dir]
#   build-dir  CMake build tree (default: build)
#   out-dir    where BENCH_*.json land (default: <build-dir>/bench-results)
#
# Set SYM_BENCH_SMOKE=1 for the fast CI variant (same flags the bench_smoke
# ctest label uses). Set SYM_BENCH_COMMIT_ROOT=1 to also refresh the
# committed trajectory files at the repo root (BENCH_overhead.json,
# BENCH_scaling.json, BENCH_cache.json, BENCH_scale.json) — full mode
# only, so a smoke run can never clobber real numbers.
#
# Every stage runs even when an earlier one fails; each study records its
# own gate verdicts (PASS/FAIL/SKIPPED) in its JSON. The script names the
# failed stages at the end and exits 1 if there were any. Under
# SYM_BENCH_COMMIT_ROOT=1 every trajectory file this run wrote is copied,
# failed gates included.

set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$root/build"}
out=${2:-"$build/bench-results"}

smoke_flag=""
if [ "${SYM_BENCH_SMOKE:-0}" = "1" ]; then
  smoke_flag="--smoke"
fi
if [ "${SYM_BENCH_COMMIT_ROOT:-0}" = "1" ] && [ -n "$smoke_flag" ]; then
  echo "run_bench: refusing to refresh root BENCH files from a smoke run"
  exit 1
fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root" -B "$build"
fi
cmake --build "$build" -j"$(nproc 2>/dev/null || echo 2)"

mkdir -p "$out"

failed=""
# run_stage NAME JSON CMD...: run one stage, writing $out/JSON; a stale file
# from an earlier run is removed first so only this run's output is copied.
run_stage() {
  name=$1
  json=$2
  shift 2
  echo "== $name =="
  rm -f "$out/$json"
  if ! "$@"; then
    echo "run_bench: stage $name FAILED"
    failed="$failed $name"
  fi
}

# Exits non-zero if the FULL stage exceeds the 1.5x acceptance bound.
run_stage overhead_study BENCH_overhead.json \
  "$build/bench/overhead_study" $smoke_flag --out "$out/BENCH_overhead.json"

# Weak-scaling sweep of the sharded engine (lanes x workers). Fails on a
# determinism violation; the parallel-efficiency target is evaluated only
# when the host has >= 4 cpus (recorded as host_cpus in the JSON).
run_stage scaling_study BENCH_scaling.json \
  "$build/bench/scaling_study" $smoke_flag --out "$out/BENCH_scaling.json"

# Blockcache placement A/B and fair-share policy study. Fails when a cell's
# digests diverge across worker counts, when aligned placement stops
# beating hash, or when size-fair stops narrowing the FIFO rate gap.
run_stage cache_fairness_study BENCH_cache.json \
  "$build/bench/cache_fairness_study" $smoke_flag --out "$out/BENCH_cache.json"

# Million-request scale study over the replayed application mixes. Fails
# when checksums/event counts diverge across worker counts, when any
# reserved cell allocates in its second half (steady-state zero-allocation
# gate), or when the full-mode ladder misses 1M concurrent in-flight.
run_stage scale_study BENCH_scale.json \
  "$build/bench/scale_study" $smoke_flag --out "$out/BENCH_scale.json"

run_stage micro_benchmarks BENCH_micro.json \
  "$build/bench/micro_benchmarks" \
  --benchmark_out="$out/BENCH_micro.json" \
  --benchmark_out_format=json \
  ${smoke_flag:+--benchmark_min_time=0.01}

if [ "${SYM_BENCH_COMMIT_ROOT:-0}" = "1" ]; then
  for f in BENCH_overhead.json BENCH_scaling.json BENCH_cache.json \
           BENCH_scale.json; do
    if [ -f "$out/$f" ]; then
      cp "$out/$f" "$root/$f"
      echo "refreshed committed trajectory file $root/$f"
    fi
  done
fi

echo
echo "results in $out:"
ls -l "$out"/BENCH_*.json || true

if [ -n "$failed" ]; then
  echo "run_bench: failed stages:$failed"
  exit 1
fi
