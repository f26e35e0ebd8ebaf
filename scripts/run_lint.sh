#!/usr/bin/env sh
# Lint driver: the in-tree symlint analyzer, run exactly as its two ctest
# gates run it (`symlint` over src/ with the P1 check against
# docs/PVARS.md, and `symlint_selfcheck` over tools/symlint, bench and
# src/workloads), plus (when installed) clang-tidy with the checked-in
# .clang-tidy config, warnings-as-errors over the determinism-critical
# libraries (src/symbiosys, src/simkit). Fails if any of them fails.
#
# Usage:
#   scripts/run_lint.sh [build-dir]               # full lint (default: build)
#   scripts/run_lint.sh --tidy-smoke <build-dir>  # clang-tidy over two
#       representative TUs only; exits 77 (ctest SKIP) when clang-tidy or
#       compile_commands.json is unavailable. Run as the clang_tidy_smoke
#       ctest target — clang-tidy is optional tooling, never a dependency.
#
# symlint needs no compile database: it is lexical and self-contained. The
# clang-tidy half needs CMAKE_EXPORT_COMPILE_COMMANDS=ON (the top-level
# CMakeLists.txt sets it).

set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

mode=full
if [ "${1:-}" = "--tidy-smoke" ]; then
  mode=smoke
  shift
fi
build=${1:-$root/build}

# Representative TUs for the smoke run: the analysis/export path (D2's
# home turf) and the sharded engine core.
smoke_tus="$root/src/symbiosys/analysis.cpp $root/src/simkit/engine.cpp"

run_tidy() {
  scope=$1
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "run_lint: clang-tidy not installed, skipping tidy pass"
    return 77
  fi
  if [ ! -f "$build/compile_commands.json" ]; then
    echo "run_lint: $build/compile_commands.json missing (configure first)"
    return 77
  fi
  if [ "$scope" = smoke ]; then
    files=$smoke_tus
  else
    files=$(find "$root/src/symbiosys" "$root/src/simkit" \
                 -name '*.cpp' | sort)
  fi
  # .clang-tidy at the repo root supplies the check list; promote every
  # diagnostic to an error so the run is a gate, not a suggestion box.
  clang-tidy -p "$build" --quiet --warnings-as-errors='*' $files
}

if [ "$mode" = smoke ]; then
  run_tidy smoke
  rc=$?
  if [ "$rc" -eq 77 ]; then exit 77; fi
  if [ "$rc" -ne 0 ]; then
    echo "run_lint: clang-tidy smoke FAILED"
    exit 1
  fi
  echo "run_lint: clang-tidy smoke OK"
  exit 0
fi

# --- full mode: symlint first, then the optional tidy pass ----------------
symlint_bin=$build/tools/symlint/symlint
if [ ! -x "$symlint_bin" ]; then
  # Not built yet (or a differently-laid-out build dir): search for it.
  symlint_bin=$(find "$build" -name symlint -type f -perm -u+x 2>/dev/null \
                | head -n1)
fi
if [ -z "${symlint_bin:-}" ] || [ ! -x "$symlint_bin" ]; then
  echo "run_lint: symlint binary not found under $build — build it first:"
  echo "  cmake -B build -S . && cmake --build build --target symlint"
  exit 2
fi

# Mirror both symlint ctest gates (tools/symlint/CMakeLists.txt).
fail=0
"$symlint_bin" --root "$root/src" --pvars-doc "$root/docs/PVARS.md" \
  || fail=1
"$symlint_bin" --root "$root/tools/symlint" --root "$root/bench" \
  --root "$root/src/workloads" || fail=1

run_tidy full
rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 77 ]; then
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "run_lint: FAILED"
  exit 1
fi
echo "run_lint: OK"
exit 0
