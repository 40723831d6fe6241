#!/usr/bin/env bash
# Query-plan acceptance bench: a Release build of bench/queries at full
# scale. The bench itself is the correctness gate — every plan run is
# oracle-checked against the serial reference evaluator, and the
# one-worker variant must reproduce the default run bit-for-bit (rows,
# groups, checksum) or the bench exits 1. The run
# produces the committed BENCH_queries.json artifact: per-plan TSV plus
# the merged metrics dump.
#
# Regression gate: when a committed BENCH_queries.json already exists at
# the repo root, the fresh run's `plan.elapsed_ms` histogram minimum (the
# fastest plan execution of the run) must not exceed the committed one's
# by more than TOLERANCE percent — the same tools/metrics_validate diff
# the other bench scripts apply, pointed at the plan histogram with
# --hist. Refresh the artifact by copying the new one over the old when a
# deliberate change moves the floor.
#
#   scripts/bench_queries.sh [build_dir] [objects] [reps]
#
# Defaults: build-bench, 131072 objects/side, best-of-3. Env: TOLERANCE
# (percent, default 50), BENCH_QUERIES_TIMEOUT (seconds, default 600).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
OBJECTS="${2:-131072}"
REPS="${3:-3}"
TOLERANCE="${TOLERANCE:-50}"
TIMEOUT_S="${BENCH_QUERIES_TIMEOUT:-600}"
COMMITTED="$(pwd)/BENCH_queries.json"

cmake -B "$BUILD_DIR" -S . -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target queries metrics_validate

OUT_DIR="$BUILD_DIR/bench-queries"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

echo "== queries $OBJECTS objects, D=8, best-of-$REPS"
(
  cd "$OUT_DIR"
  timeout "$TIMEOUT_S" ../bench/queries "$OBJECTS" 8 1.1 "$REPS" \
    | tee bench_queries.log
  if [ -f "$COMMITTED" ]; then
    ../tools/metrics_validate --merge BENCH_queries.json \
      --baseline "$COMMITTED" --tolerance "$TOLERANCE" \
      --bench queries --hist plan.elapsed_ms ./*.metrics.json
  else
    echo "bench-queries: no committed BENCH_queries.json — skipping diff"
    ../tools/metrics_validate --merge BENCH_queries.json ./*.metrics.json
  fi
)
cp "$OUT_DIR/BENCH_queries.json" BENCH_queries.json
echo "bench-queries: OK (BENCH_queries.json)"
