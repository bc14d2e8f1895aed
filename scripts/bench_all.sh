#!/usr/bin/env bash
# Unified bench runner: runs every bench the build declares (the manifest
# <build-dir>/bench/benches.txt that bench/CMakeLists.txt's mm2_add_bench
# writes), names any other bench_* binary it skips on stderr, and
# collects the '{"bench": ...}' JSON metric lines that bench/bench_report.h
# prints after each google-benchmark run, and writes one trajectory file:
#
#   BENCH_<label>.json = {"label": "<label>", "build_type": "<flavour>",
#                         "hw_concurrency": M, "records": [ {bench,metric,
#                         value,unit,build_type,hw_concurrency}, ... ]}
#
# build_type is the bench build's CMAKE_BUILD_TYPE, plus "+<sanitizers>"
# when MM2_SANITIZE was set; the envelope copies it from the records.
# Compare two trajectories with scripts/bench_compare.py (which refuses to
# diff trajectories of different build types or hw_concurrency).
#
# Usage: scripts/bench_all.sh <label> [build-dir]    (build-dir: ./build)
# Env:
#   MM2_BENCH_ARGS    extra flags passed to every bench binary
#                     (e.g. --benchmark_min_time=0.05; the seed baselines
#                     are taken with --benchmark_min_time=0.05, see
#                     EXPERIMENTS.md)
#   MM2_BENCH_SMOKE   =1: tiny-size mode for CI — minimal measuring time
#                     and a filter dropping benchmark args >= 1000
#   MM2_BENCH_FILTER  only run bench binaries whose name matches this
#                     (extended) regex, e.g. 'chase|compose'
#   MM2_BENCH_OUT_DIR directory for BENCH_<label>.json (default: repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:?usage: scripts/bench_all.sh <label> [build-dir]}"
BUILD_DIR="${2:-build}"
OUT_DIR="${MM2_BENCH_OUT_DIR:-.}"
mkdir -p "$OUT_DIR"
OUT="$OUT_DIR/BENCH_${LABEL}.json"

ARGS=(${MM2_BENCH_ARGS:-})
if [[ "${MM2_BENCH_SMOKE:-0}" == "1" ]]; then
  # Keep only benchmarks whose trailing size argument stays below 4 digits
  # (named-arg grids like rows:32000 don't end in the size, so also drop
  # named sizes >= 5 digits), and spend minimal time per benchmark: the
  # smoke gate checks that the pipeline works, not that the numbers are
  # pretty.
  ARGS+=("--benchmark_min_time=0.01"
         "--benchmark_filter=-(/[0-9]{4,}$|rows:[0-9]{5,})")
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

MANIFEST="$BUILD_DIR/bench/benches.txt"
if [[ ! -f "$MANIFEST" ]]; then
  echo "error: no bench manifest at $MANIFEST — configure and build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi
mapfile -t DECLARED < "$MANIFEST"
# A bench_* binary the manifest does not name belongs to a target this build
# no longer declares.
for bench in "$BUILD_DIR"/bench/bench_*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name="$(basename "$bench")"
  if ! printf '%s\n' "${DECLARED[@]}" | grep -qxF "$name"; then
    echo "skipping stray binary $name (not declared by this build)" >&2
  fi
done

count=0
for name in "${DECLARED[@]}"; do
  [[ -n "$name" ]] || continue
  bench="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bench" ]]; then
    echo "error: $name is declared but not built — build first:" >&2
    echo "  cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
  if [[ -n "${MM2_BENCH_FILTER:-}" ]] && ! [[ "$name" =~ ${MM2_BENCH_FILTER} ]]; then
    continue
  fi
  echo ">> $name" >&2
  "$bench" ${ARGS[@]+"${ARGS[@]}"} | grep '^{"bench"' >> "$TMP" || {
    echo "error: $name emitted no metric lines (broken MM2_BENCH_MAIN?)" >&2
    exit 1
  }
  count=$((count + 1))
done

if [[ "$count" -eq 0 ]]; then
  echo "error: no declared bench ran (check MM2_BENCH_FILTER)" >&2
  exit 1
fi

BUILD_TYPE="$(sed -n '1s/.*"build_type": "\([^"]*\)".*/\1/p' "$TMP")"
{
  printf '{"label": "%s", "build_type": "%s", "hw_concurrency": %s, "records": [\n' \
    "$LABEL" "$BUILD_TYPE" "$(nproc)"
  awk 'NR > 1 { printf ",\n" } { printf "%s", $0 }' "$TMP"
  printf '\n]}\n'
} > "$OUT"
echo "wrote $OUT ($(wc -l < "$TMP") metrics from $count benches)" >&2
