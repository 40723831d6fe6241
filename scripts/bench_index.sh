#!/usr/bin/env bash
# Index-join acceptance bench: a Release build of the real-backend join
# bench, index table only, with the warm-probe gate armed — the run fails
# unless the warm index probe (MmIndexProbe: index-NL's probe stage over
# the persisted store's leaf array, no partition passes, no build) beats
# the best partitioning
# driver (min of Grace and hybrid hash) on at least one SELECTIVE
# configuration (|S| < |R|: most R tuples are never asked for, the
# index-join case from the paper). The table sweeps |R|/|S| ratio and
# skew (uniform + Zipf) and also reports the COLD index-nested-loops
# driver (partition passes + per-partition bulk build + probe) alongside
# — cold pays the build on every run and is reported, not gated. The
# identity check (every driver and the warm probe produce the identical
# verified count/checksum per cell) is unconditional inside the bench.
#
#   scripts/bench_index.sh [build_dir] [objects] [out_json]
#
# Defaults: build-bench, 65536 objects per relation, D=8 partitions.
# Output artifact: BENCH_index.json at the repo root. Knobs via env:
# MMJOIN_INDEX_REPS (default 3, best-of), BENCH_INDEX_TIMEOUT (seconds,
# default 1800), PARTITIONS (default 8).
#
# This is the run that produces the committed BENCH_index.json artifact;
# CI's bench-smoke runs the same table at small scale WITHOUT the gate
# (shared runners are too noisy for timing assertions).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
OBJECTS="${2:-65536}"
OUT_JSON="${3:-BENCH_index.json}"
PARTITIONS="${PARTITIONS:-8}"
REPS="${MMJOIN_INDEX_REPS:-3}"
TIMEOUT_S="${BENCH_INDEX_TIMEOUT:-1800}"

cmake -B "$BUILD_DIR" -S . -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target real_backend_join metrics_validate

OUT_DIR="$BUILD_DIR/bench-index"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

echo "== real_backend_join index table: $OBJECTS objects, D=$PARTITIONS," \
     "reps=$REPS, gate: warm probe beats best partitioning driver on a" \
     "selective config"
(
  cd "$OUT_DIR"
  mkdir -p store
  MMJOIN_INDEX_ONLY=1 MMJOIN_INDEX_ASSERT=1 MMJOIN_INDEX_REPS="$REPS" \
    timeout "$TIMEOUT_S" ../bench/real_backend_join "$OBJECTS" \
    "$PARTITIONS" 1.1 store \
    | tee bench_index.log
  ../tools/metrics_validate --merge BENCH_index.json ./*.metrics.json
)
cp "$OUT_DIR/BENCH_index.json" "$OUT_JSON"
echo "bench-index: OK ($OUT_JSON)"
