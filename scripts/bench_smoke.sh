#!/usr/bin/env bash
# Bench smoke: a Release build of the figure benches plus the real-backend
# join bench at SMALL scale, each under a hard timeout, with every
# `*.metrics.json` dump validated by the strict JSON parser and merged
# into one BENCH_ci.json artifact (tools/metrics_validate). This is a
# does-the-pipeline-run-and-verify gate first; the only timing assertion
# is a coarse big-regression tripwire: when the repo carries a committed
# BENCH_baseline.json, the real_backend_join dump's fastest join
# (join.elapsed_ms histogram min; usually the index table's warm
# persisted-tree probe, best-of-3 via MMJOIN_INDEX_REPS, as the paging
# table's cells are via MMJOIN_PAGING_REPS) must not exceed the
# baseline's by more than BENCH_SMOKE_TOLERANCE percent (default 50 — at
# smoke scale the fastest join is well under 1 ms, and even its best-of-3
# min jitters tens of percent on shared runners). Fine-grained
# speedup claims live in perfbench/, not here — CI runners are too
# noisy for tight timing gates. The planner_regret dump additionally
# trips on a worse regret geomean or mean model error vs the baseline
# (the adaptive planner's closed loop regressing is a build break even
# when raw join times hold). Refresh the baseline by copying
# build-bench/bench-smoke/BENCH_ci.json over BENCH_baseline.json when a
# deliberate perf change moves the floor.
#
#   scripts/bench_smoke.sh [build_dir] [objects]
#
# Defaults: build-bench, 8192 objects per relation.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
OBJECTS="${2:-8192}"
PER_BENCH_TIMEOUT="${BENCH_SMOKE_TIMEOUT:-300}"
TOLERANCE="${BENCH_SMOKE_TOLERANCE:-50}"
BASELINE="$(pwd)/BENCH_baseline.json"

cmake -B "$BUILD_DIR" -S . -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target \
  fig5a_nested_loops fig5b_sort_merge fig5c_grace real_backend_join \
  service_load queries planner_regret metrics_validate

OUT_DIR="$BUILD_DIR/bench-smoke"
rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"
cd "$OUT_DIR"

run() {
  echo "== $* (timeout ${PER_BENCH_TIMEOUT}s)"
  timeout "$PER_BENCH_TIMEOUT" "$@"
}

run "../bench/fig5a_nested_loops" "$OBJECTS"
run "../bench/fig5b_sort_merge" "$OBJECTS"
run "../bench/fig5c_grace" "$OBJECTS"
# Twice the objects for the real backend (it is wall-clock fast), D=8,
# Zipf theta 1.1: the serial-vs-parallel table runs on a uniform and a
# genuinely skewed workload, and the bench exits 1 unless one worker and
# four produce the identical join. The paging and index tables run each
# cell best-of-3, the samples the tripwire below reads. The run includes
# the small-N mpsm-vs-sort-merge table (identity asserted
# unconditionally, timing reported but not gated).
run env MMJOIN_PAGING_REPS=3 MMJOIN_INDEX_REPS=3 \
  "../bench/real_backend_join" "$((OBJECTS * 2))" 8 1.1
# 10 seconds of open-loop multi-query load through the mmjoind service
# stack (in-process server, real unix socket, 4 clients on the shared
# 4-worker pool). The identity check — every concurrent result
# byte-identical to the serial baseline — is unconditional inside the
# bench; the peak-concurrency assertion stays OFF here (smoke-scale
# queries are too fast to queue reliably) and is armed by
# scripts/bench_service.sh instead.
run "../bench/service_load" "$((OBJECTS / 2))" 10 4
# Small-N pass over the TPC-H-flavoured plans (push-based operator layer):
# every plan is oracle-checked and its one-worker variant must be
# bit-identical inside the bench; the dump rides into BENCH_ci.json like
# the rest. The timing gate for plans lives in scripts/bench_queries.sh.
run "../bench/queries" "$OBJECTS" 4 1.1 1
# Small-N pass of the planner-regret sweep WITHOUT the regret gate
# (MMJOIN_PLANNER_ASSERT unset — shared runners are too noisy; the gate
# is armed at scale by scripts/bench_planner.sh). The auto-vs-explicit
# identity check is unconditional inside the bench, and the dump's
# planner telemetry (regret geomean, model error) rides into
# BENCH_ci.json where the baseline diff below trips on closed-loop
# regressions.
run "../bench/planner_regret" "$OBJECTS" 8 store_planner

# Every dump must parse (strict RFC 8259) and carry the bench shape; the
# merged artifact is what CI uploads. With a committed baseline present,
# the real-backend bench is additionally diffed against it (gross
# wall-clock regressions only; a bench missing from the baseline warns
# and passes).
if [ -f "$BASELINE" ]; then
  ../tools/metrics_validate --merge BENCH_ci.json \
    --baseline "$BASELINE" --tolerance "$TOLERANCE" \
    --bench real_backend_join ./*.metrics.json
  # Planner closed-loop trips: regret geomean and mean |model error| vs
  # the baseline (metrics_validate only arms these when both sides carry
  # the planner telemetry; the elapsed-min diff doubles as the planner
  # bench's gross wall-clock tripwire).
  ../tools/metrics_validate \
    --baseline "$BASELINE" --tolerance "$TOLERANCE" \
    --bench planner_regret ./planner_regret.metrics.json
else
  echo "bench-smoke: no BENCH_baseline.json — skipping regression diff"
  ../tools/metrics_validate --merge BENCH_ci.json ./*.metrics.json
fi
echo "bench-smoke: OK ($OUT_DIR/BENCH_ci.json)"
