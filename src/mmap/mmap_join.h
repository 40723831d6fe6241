// Parallel pointer-based joins over REAL memory-mapped relations.
//
// These are thin entry points over the unified execution stack: each call
// instantiates exec::RealBackend (bounded worker threads, mmap(2) segments,
// wall-clock timing — see exec/real_backend.h) and runs the SAME driver
// the simulator runs (exec/join_drivers.h). There is no second copy of any
// algorithm: pass structure, staggered phases, RP/RS layout, sorting and
// bucket logic are shared with src/join/ by construction, which is what
// makes the cross-backend equivalence tests a one-harness check.
#ifndef MMJOIN_MMAP_MMAP_JOIN_H_
#define MMJOIN_MMAP_MMAP_JOIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/kernels.h"
#include "exec/numa.h"
#include "exec/op/plan.h"
#include "exec/scheduler.h"
#include "join/join_common.h"
#include "mmap/mm_relation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace mmjoin::opt {
class AdaptiveController;
}  // namespace mmjoin::opt

namespace mmjoin::mm {

/// The driver enum is join::Algorithm. This alias remains because code
/// built against this header, such as perfbench/, spells drivers as
/// mm::MmAlgorithm::kX.
using MmAlgorithm = join::Algorithm;

/// Tunables for the real joins. Zeros mean "derive a sensible default".
/// Field-by-field documentation lives in docs/PARAMETERS.md.
struct MmJoinOptions {
  /// Driver MmJoin() runs; ignored by the per-driver entry points. Unset,
  /// the adaptive planner (src/opt/planner.h) picks it: relation stats, a
  /// mincore residency probe and the machine calibration rank all six
  /// drivers by corrected wall-clock cost. The planner then also
  /// overwrites the performance-knob fields (paging, k_buckets, tsize)
  /// with its derived vector — results are knob-invariant by contract, so
  /// auto output stays bit-identical to any explicit-knob run. A set value runs that driver's entry point
  /// unchanged: MmJoin(algorithm=X) is MmX().
  std::optional<join::Algorithm> algorithm;
  /// Planner state when `algorithm` is unset: calibration + learned EWMA
  /// corrections (opt/adaptive.h). nullptr = a process-local controller
  /// with host-default calibration and no persistence.
  opt::AdaptiveController* planner = nullptr;
  /// Worker-thread bound; 0 = std::thread::hardware_concurrency(). The
  /// effective count is min(D, bound). Every pass splits into morsel
  /// chains on per-worker deques with work stealing and skew-aware
  /// over-splitting, so when D exceeds the bound the workers share the
  /// partitions; 1 runs every chain on the calling thread. Output
  /// count/checksum are identical for every bound — only wall-clock and
  /// scheduler telemetry differ.
  uint32_t max_threads = 0;
  uint64_t morsel_tuples = 0;  ///< tuples per morsel; 0 = default (16 Ki)
  /// Private memory per partition used to SHAPE plans (sort-merge IRUN /
  /// NRUN, Grace K, MPSM's run length); 0 = the JoinParams default (4 MiB). It does not limit
  /// real memory use — the kernel pages as it pleases.
  uint64_t m_rproc_bytes = 0;
  uint32_t k_buckets = 0;  ///< Grace/hybrid K (0: derive from memory)
  uint32_t tsize = 0;      ///< Grace/hybrid chain count (0: ~4 per chain)
  /// mmap paging policy: `kNone` issues no hints; `kAdvise` (default) maps
  /// the drivers' declared access intents onto madvise(2) — SEQUENTIAL
  /// scans, RANDOM probes, POPULATE_WRITE pre-faulting of temporaries,
  /// WILLNEED one band ahead (bands are never retired with DONTNEED: the
  /// process-wide arena keeps the temporaries' pages). Hints never affect
  /// results.
  exec::PagingMode paging = exec::PagingMode::kAdvise;
  /// NUMA placement of the RP/RS temporaries: `kNone` (default) leaves
  /// placement to the kernel; `kInterleave` mbind(2)s new segments across
  /// all nodes; `kLocal` first-touches each worker's RP band from its
  /// owning worker. Both degrade to counted no-ops on single-node hosts.
  exec::NumaMode numa = exec::NumaMode::kNone;
  /// Optional wall-clock trace recorder (Chrome trace-event JSON, same
  /// format as simulated runs; Perfetto-loadable via WriteFile).
  obs::TraceRecorder* trace = nullptr;
  /// External shared worker pool (the mmjoind service mode). When set, the
  /// join spawns no threads: its partition passes are submitted to the pool
  /// as chain sets and interleave at morsel granularity with concurrent
  /// queries. max_threads is ignored (the pool's shape wins)
  /// and `priority` picks the weighted-round-robin class. The pool
  /// must outlive the call. nullptr = classic one-run ownership.
  exec::SharedWorkerPool* pool = nullptr;
  exec::QueryPriority priority = exec::QueryPriority::kNormal;
};

/// Outcome of a real join run. The flat fields mirror the historical
/// surface; `run` carries the full unified result (pass marks, rusage
/// fault deltas, derived-plan echoes) shared with the simulator.
struct MmJoinResult {
  double wall_ms = 0;
  uint64_t output_count = 0;
  uint64_t output_checksum = 0;
  bool verified = false;  ///< matched the workload's expected join
  uint32_t threads_used = 0;
  /// Driver that ran (the planner's pick when MmJoin's `algorithm` is
  /// unset) and whether the planner chose it.
  join::Algorithm algorithm = join::Algorithm::kNestedLoops;
  bool auto_selected = false;
  /// Planner one-liner when it chose ("picked grace: ..."); empty otherwise.
  /// Predicted-vs-actual numbers live in run.model_predicted_ms /
  /// run.model_error_pct and the join.model.* metrics.
  std::string planner_note;
  /// First paging-advice failure of the run (OK when none). Hints are
  /// best-effort and never fail the join — callers decide whether a failed
  /// madvise(2) is worth reporting. The count is in
  /// run.paging_advise_errors.
  Status paging_status = Status::OK();
  /// First NUMA-placement failure of the run (OK when none, including the
  /// single-node degradations). Placement is best-effort and never fails
  /// the join; the count is in run.numa_mbind_errors.
  Status numa_status = Status::OK();
  join::JoinRunResult run;  ///< full result in the cross-backend shape

  /// Exports the run into `registry` under the same "join." / "pass."
  /// names the simulated benches use, so real runs emit identical
  /// `*.metrics.json` files.
  void ExportMetrics(obs::MetricsRegistry* registry) const {
    run.ExportMetrics(registry);
  }
};

/// The adaptive entry point: runs `options.algorithm` through its
/// join::kDrivers entry point. When it is unset, the planner picks the
/// driver (relation stats + residency probe + calibration), and MmJoin
/// records predicted-vs-actual into the result (run.model_*) and feeds
/// the pair back into the controller's EWMA correction. Output
/// count/checksum are bit-identical to the explicit driver's entry point
/// — the planner only picks, it never changes semantics.
StatusOr<MmJoinResult> MmJoin(const MmWorkload& workload,
                              const MmJoinOptions& options = {});

/// Nested loops: immediate pointer dereference per R object, staggered
/// D-1 phases over the repartitioned remainder.
StatusOr<MmJoinResult> MmNestedLoops(const MmWorkload& workload,
                                     const MmJoinOptions& options = {});

/// Sort-merge: repartition by target, sort each RS_i by S-pointer, then a
/// single sequential sweep of S_i per partition.
StatusOr<MmJoinResult> MmSortMerge(const MmWorkload& workload,
                                   const MmJoinOptions& options = {});

/// Massively-parallel sort-merge (MPSM): each partition writes its R
/// objects' 16-byte refs into a private run, sorts it in runs of
/// M_Rproc / 16 refs, and sweeps S once per run in pointer order — no
/// repartitioning and no merge. Same pass labels and bit-identical output
/// as MmSortMerge.
StatusOr<MmJoinResult> MmMpsm(const MmWorkload& workload,
                              const MmJoinOptions& options = {});

/// Grace: repartition into monotone buckets, per-bucket in-memory hash
/// table, sequential-overall S access.
StatusOr<MmJoinResult> MmGrace(const MmWorkload& workload,
                               const MmJoinOptions& options = {});

/// Hybrid hash: Grace with bucket 0 of each partition's own contribution
/// kept resident in memory, skipping one disk round trip.
StatusOr<MmJoinResult> MmHybridHash(const MmWorkload& workload,
                                    const MmJoinOptions& options = {});

/// Index nested-loops: Grace-style repartition, then each partition's RS_i
/// sorted in place by R's join keys into one sorted leaf array, swept in
/// pointer order with one forward scan per morsel of leaves — unmatched S
/// objects are never read.
StatusOr<MmJoinResult> MmIndexNestedLoops(const MmWorkload& workload,
                                          const MmJoinOptions& options = {});

/// Warm index probe: joins a PERSISTED store through its `<prefix>_ix`
/// index, which is index-NL's own (mm_relation.h, StoreIndexRoot). Setup
/// attaches the sealed segment (checksums verified, root validated against
/// `workload`) and views each partition's leaf array in place; then
/// index-NL's probe stage (op::ProbeIndex) runs — one forward leaf scan
/// per morsel of leaves, only keys inside S dereferenced.
/// No partition passes and no index build: the build was paid once at
/// PersistMmWorkload time, which is the store's build-once/query-many
/// bargain. Pass labels "setup" and "index-probe". Runs on the RealBackend
/// like every driver, so it honours `pool`, `max_threads` and the other
/// backend knobs; count and checksum are identical on any worker count.
/// Oracle-verified like every driver. The workload must be the one the
/// store at `prefix` was persisted from.
StatusOr<MmJoinResult> MmIndexProbe(SegmentManager* manager,
                                    const std::string& prefix,
                                    const MmWorkload& workload,
                                    const MmJoinOptions& options = {});

/// Outcome of a real plan run (exec/op/plan.h): the parallel result plus a
/// `verified` flag from re-evaluating the plan with the serial reference
/// evaluator over the same mapped relations — groups, counts, and checksum
/// must match bit-for-bit.
struct MmPlanResult {
  exec::op::PlanRunResult plan;
  bool verified = false;
  Status paging_status = Status::OK();

  void ExportMetrics(obs::MetricsRegistry* registry) const;
};

/// Runs a query plan (σ(R) [⋈ S] → Γ) over mapped relations through the
/// push-based operator layer, with the same backend knobs as the joins.
/// Options that only shape multi-pass joins (k_buckets, tsize,
/// m_rproc_bytes) are ignored — a plan is one morsel pass.
StatusOr<MmPlanResult> MmRunPlan(const MmWorkload& workload,
                                 const exec::op::PlanSpec& spec,
                                 const MmJoinOptions& options = {});

}  // namespace mmjoin::mm

#endif  // MMJOIN_MMAP_MMAP_JOIN_H_
