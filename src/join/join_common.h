// Shared infrastructure of the three parallel pointer-based join algorithms:
// parameters, results, the Rproc/Sproc process set, the staggered-phase
// offset function, the RP_i temporary sub-partitioning of passes 0/1, and
// the G-buffered S-object fetch protocol.
#ifndef MMJOIN_JOIN_JOIN_COMMON_H_
#define MMJOIN_JOIN_JOIN_COMMON_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/backend.h"
#include "obs/metrics.h"
#include "rel/relation.h"
#include "sim/shared_buffer.h"
#include "sim/sim_env.h"
#include "util/status.h"
#include "vm/replacement.h"

namespace mmjoin::join {

/// Which algorithm a driver runs. Each value has one row in
/// join::kDrivers (join/drivers.h), which holds its name and entry points.
enum class Algorithm {
  kNestedLoops,
  kSortMerge,
  kGrace,
  kHybridHash,
  kIndexNestedLoops,
  kMpsm,
};

/// Number of Algorithm values, which is the number of kDrivers rows.
inline constexpr uint32_t kNumAlgorithms = 6;

/// The request-side name that asks the planner to pick the driver. It
/// names no driver: results always carry the driver that ran.
inline constexpr const char* kAutoAlgorithmName = "auto";

/// The driver's name from its kDrivers row, as the protocol, the CLIs,
/// calibration files and metrics spell it; "?" for a value outside the
/// enum.
const char* AlgorithmName(Algorithm a);

/// The driver named `name`; nullopt for any other string, "auto" included.
std::optional<Algorithm> ParseAlgorithm(std::string_view name);

/// Tunable parameters of a join execution. Fields left at 0 (or nullopt)
/// are derived automatically per the paper's parameter-choice sections.
/// Every field's paper provenance (section / equation) is cross-referenced
/// in docs/PARAMETERS.md.
struct JoinParams {
  uint64_t m_rproc_bytes = 4ull << 20;  ///< M_Rproc_i: private memory, bytes
  uint64_t m_sproc_bytes = 4ull << 20;  ///< M_Sproc_i: S-side memory, bytes
  /// G: shared request-buffer size in bytes; 0 = one VM page (B), the
  /// paper's choice. See sim::GBuffer for the exchange accounting.
  uint64_t g_bytes = 0;
  /// Synchronize processes after every pass/phase. Default: off for nested
  /// loops (section 5.1 reports a ≤0.5% effect), on for sort-merge and
  /// Grace, whose later passes assume the partitioning is complete.
  std::optional<bool> phase_sync;
  vm::PolicyKind policy = vm::PolicyKind::kLru;  ///< page replacement policy

  // --- sort-merge (section 6.2); 0 = choose automatically ---
  uint64_t irun = 0;       ///< IRUN: objects per initial sorted run
  uint64_t nrun_abl = 0;   ///< NRUNABL: merge fan-in, all passes but the last
  uint64_t nrun_last = 0;  ///< NRUNLAST: merge fan-in bound on the last pass
  uint32_t heap_ptr_bytes = 8;  ///< hp: bytes per pointer-heap element

  // --- Grace (section 7.2); 0 = choose automatically ---
  uint32_t k_buckets = 0;  ///< K: coarse hash buckets per RS_i
  uint32_t tsize = 0;      ///< TSIZE: in-memory hash table chains
  /// Allowance multiplier for hash-table overhead when deriving K
  /// automatically: a bucket of |RS_i|/K objects must fit in
  /// M_Rproc / fuzz bytes.
  double fuzz = 1.15;
};

/// Elapsed time of one pass (or phase group) of an execution, measured as
/// the difference of the max-over-Rprocs clock at its boundaries.
struct PassMark {
  std::string label;
  double elapsed_ms = 0;  ///< duration of this pass
  uint64_t faults = 0;    ///< page faults incurred during this pass
};

/// Outcome of one join execution.
struct JoinRunResult {
  double elapsed_ms = 0;  ///< max over Rproc clocks = total join time
  std::vector<double> rproc_ms;
  std::vector<sim::ProcessStats> rproc_stats;
  /// Per-pass timing (setup, pass 0, pass 1, sort, merge, final join) —
  /// the granularity at which the paper's analysis assigns costs.
  std::vector<PassMark> passes;

  uint64_t output_count = 0;
  uint64_t output_checksum = 0;
  bool verified = false;  ///< output matched the workload's expected join

  double setup_ms = 0;  ///< mapping setup portion (per Rproc)
  uint64_t faults = 0;       ///< page faults, summed over all processes
  uint64_t write_backs = 0;  ///< dirty write-backs, summed over all processes
  /// Workers that executed the partitions: D on the simulator (one virtual
  /// process per partition), the bounded thread count on the real backend.
  uint32_t threads_used = 0;

  // Echoes of the derived algorithm parameters, for reporting.
  uint64_t irun = 0, nrun_abl = 0, nrun_last = 0, npass = 0, lrun = 0;
  uint32_t k_buckets = 0, tsize = 0;
  /// Full reads of R that counted the bucket populations (Grace, hybrid
  /// hash, index-NL): 1 when this join counted them, 0 when it laid RS
  /// out from the workload's memo (rel/bucket_memo.h) or does not bucket.
  uint32_t histogram_scans = 0;

  // Scheduler telemetry (real backend; all zero on the simulator). Summed
  // over workers and passes; per-worker detail lives on the trace's
  // scheduler tracks.
  uint64_t sched_morsels = 0;         ///< morsels executed
  uint64_t sched_steals = 0;          ///< chains taken from another deque
  uint64_t sched_steal_failures = 0;  ///< steal attempts that found nothing
  double sched_idle_ms = 0;           ///< tail idle summed over workers

  // Dereference-kernel and paging-policy telemetry (real backend, with
  // paging!=none for the advise counters; all zero on the simulator).
  // See exec/kernels.h and DESIGN.md §7.2.
  uint64_t kernel_batches = 0;     ///< batched kernel invocations
  uint64_t kernel_requests = 0;    ///< S dereferences through a kernel
  uint64_t kernel_prefetches = 0;  ///< software prefetches issued
  uint64_t paging_advise_calls = 0;   ///< madvise intents applied
  uint64_t paging_advise_bytes = 0;   ///< page-rounded bytes advised
  uint64_t paging_advise_errors = 0;  ///< madvise failures (also Status)

  // Index nested-loops telemetry (index-nl driver only; all zero for the
  // partitioning drivers).
  uint64_t index_entries = 0;  ///< leaf refs across all partition indexes
  uint64_t index_probes = 0;   ///< S tuples probed against an index
  uint64_t index_matches = 0;  ///< probes that found at least one R ref

  // NUMA placement telemetry (real backend with numa!=none; all zero
  // otherwise). On single-node hosts the mode degrades to counted no-ops:
  // numa_nodes reports 1 and the action counters stay zero.
  uint32_t numa_nodes = 0;             ///< detected NUMA nodes
  uint64_t numa_mbind_calls = 0;       ///< segments interleaved via mbind
  uint64_t numa_mbind_errors = 0;      ///< mbind failures (also Status)
  uint64_t numa_first_touch_pages = 0; ///< RP pages pre-faulted by owners

  // Adaptive-planner echo (real backend through mm::MmJoin; all zero when
  // the caller picked the driver explicitly and no prediction was made).
  // error_pct is signed: positive = the run was slower than predicted.
  bool planner_auto = false;       ///< the planner chose this driver
  double model_predicted_ms = 0;   ///< corrected wall-model prediction
  double model_error_pct = 0;      ///< 100 * (actual - predicted) / predicted

  /// Exports the run into `registry` under the "join." / "pass." / "rproc."
  /// prefixes (see DESIGN.md §Observability for the exact names). Called by
  /// the benches to produce their `*.metrics.json` dumps.
  void ExportMetrics(obs::MetricsRegistry* registry) const;
};

/// The staggered-phase partner: in phase t (1-based), Rproc_i works against
/// partition offset(i, t) = (i + t) mod D, so no two Rprocs touch the same
/// partition in the same phase (the 0-based form of the paper's
/// ((i + t - 1) mod D) + 1).
inline uint32_t PhaseOffset(uint32_t i, uint32_t t, uint32_t d) {
  return (i + t) % d;
}

/// Common execution state: the Rproc_i/Sproc_i process pairs, the RP_i
/// temporary areas with their exact sub-partition layout, and per-Rproc
/// join-output tallies. This is the *simulated* execution backend: it
/// models the exec::Backend concept (exec/backend.h), so the unified
/// drivers in exec/join_drivers.h run on it directly, with every partition
/// executed serially in workload order against virtual clocks.
class JoinExecution {
 public:
  /// Backend segment handle (exec::Backend requirement).
  using Seg = sim::SegId;
  /// The temporaries hold whole 128-byte objects: moving them is the
  /// paper's cost model (exec::Backend requirement).
  using Tuple = rel::RObject;

  JoinExecution(sim::SimEnv* env, const rel::Workload& workload,
                const JoinParams& params);
  ~JoinExecution();

  uint32_t D() const { return d_; }
  sim::SimEnv* env() { return env_; }
  const rel::Workload& workload() const { return *workload_; }
  const JoinParams& params() const { return params_; }
  const sim::MachineConfig& mc() const { return env_->config(); }

  sim::Process& rproc(uint32_t i) { return *rprocs_[i]; }
  sim::Process& sproc(uint32_t i) { return *sprocs_[i]; }

  // ---- Backend workload view ----------------------------------------------
  sim::SegId r_seg(uint32_t i) const { return workload_->r_segs[i]; }
  sim::SegId s_seg(uint32_t i) const { return workload_->s_segs[i]; }
  uint64_t r_count(uint32_t i) const { return workload_->r_count[i]; }
  uint64_t s_count(uint32_t i) const { return workload_->s_count[i]; }
  /// |R_{i,j}|: R_i objects whose pointer targets S_j.
  uint64_t SubCount(uint32_t i, uint32_t j) const {
    return workload_->counts[i][j];
  }
  /// Uncharged metadata scan of R_i (planning only, never the join path).
  const rel::RObject* RawR(uint32_t i) const {
    return reinterpret_cast<const rel::RObject*>(
        env_->segment(workload_->r_segs[i]).raw());
  }
  rel::BucketMemo& bucket_memo() const { return workload_->bucket_memo; }

  // ---- Backend segment operations -----------------------------------------
  /// Creates a newMap-style (zero-fill) temporary of `bytes` on disk `i`.
  StatusOr<sim::SegId> CreateSegment(const std::string& name, uint32_t i,
                                     uint64_t bytes) {
    return env_->CreateSegment(name, i, bytes, /*materialized=*/false);
  }
  Status DeleteSegment(sim::SegId seg) { return env_->DeleteSegment(seg); }
  uint64_t SegPages(sim::SegId seg) const {
    return env_->segment(seg).pages();
  }

  // ---- Backend per-partition process operations ---------------------------
  const void* Read(uint32_t i, sim::SegId seg, uint64_t offset,
                   uint64_t len) {
    return rprocs_[i]->Read(seg, offset, len);
  }
  void* Write(uint32_t i, sim::SegId seg, uint64_t offset, uint64_t len) {
    return rprocs_[i]->Write(seg, offset, len);
  }
  void ChargeCpu(uint32_t i, double ms) { rprocs_[i]->ChargeCpu(ms); }
  void ChargeSetup(uint32_t i, double ms) { rprocs_[i]->ChargeSetup(ms); }
  void DropSegment(uint32_t i, sim::SegId seg, bool discard) {
    rprocs_[i]->DropSegment(seg, discard);
  }

  // ---- Backend execution structure ----------------------------------------
  /// Runs fn(i) for every partition, serially in workload order: the
  /// simulated processes interleave through virtual clocks, not real
  /// concurrency, and serial order keeps cache/G-buffer state deterministic.
  template <typename Fn>
  void ForEachPartition(Fn&& fn) {
    for (uint32_t i = 0; i < d_; ++i) fn(i);
  }
  /// Costed flavor: the estimates steer only the real backend's scheduler,
  /// which the simulator does not have — identical to ForEachPartition
  /// here.
  template <typename Fn>
  void ForEachPartition(const std::vector<uint64_t>& /*costs*/, Fn&& fn) {
    for (uint32_t i = 0; i < d_; ++i) fn(i);
  }
  /// Tuple-range flavor: one full-range call per partition, serially —
  /// bit-identical to ForEachPartition (morsel splitting is a real-backend
  /// concern; see exec/scheduler.h).
  template <typename Body>
  void ForEachPartitionTuples(const std::vector<uint64_t>& counts,
                              Body&& body, bool /*independent*/) {
    for (uint32_t i = 0; i < d_; ++i) body(i, 0, counts[i]);
  }

  // ---- Backend observability ----------------------------------------------
  bool tracing() const { return env_->trace() != nullptr; }
  double clock_ms(uint32_t i) const { return rprocs_[i]->clock_ms(); }
  /// Emits a complete span [start_ms, now) on Rproc_i's trace track.
  void Span(uint32_t i, const std::string& name, const std::string& cat,
            double start_ms, std::vector<obs::TraceArg> args = {}) {
    if (obs::TraceRecorder* trace = env_->trace()) {
      trace->Complete(rprocs_[i]->trace_pid(), rprocs_[i]->trace_tid(), name,
                      cat, start_ms, rprocs_[i]->clock_ms() - start_ms,
                      std::move(args));
    }
  }

  /// Creates the RP_i temporaries (exactly sized from the workload's
  /// sub-partition counts) on each disk.
  Status CreateRpSegments();
  sim::SegId rp_seg(uint32_t i) const { return rp_segs_[i]; }
  /// Byte offset of sub-partition RP_{i,j} within RP_i.
  uint64_t RpSubOffset(uint32_t i, uint32_t j) const;
  /// Number of objects in sub-partition RP_{i,j} (j != i).
  uint64_t RpSubCount(uint32_t i, uint32_t j) const;
  /// Pages of RP_i.
  uint64_t RpPages(uint32_t i) const;

  /// Appends an R object to RP_{i,j}, charging the private->private move.
  /// False, with nothing written or charged, when RP_{i,j} is full.
  [[nodiscard]] bool AppendToRp(uint32_t i, uint32_t j, const Tuple& obj);
  /// True when every RP_{i,j} holds exactly its |R_{i,j}| objects.
  bool RpFilled() const { return rp_layout_.Filled(); }

  /// Requests the S object behind `sptr` on behalf of Rproc_i through the
  /// G buffer; drained requests touch Sproc's cache and emit join output.
  void RequestS(uint32_t i, uint64_t r_id, uint64_t packed_sptr);
  /// Drains Rproc_i's pending S requests (end of a scan or phase).
  void FlushSRequests(uint32_t i);

  // ---- Backend probe mode / sorting / paging policy -----------------------
  // The simulator never batches: the G-buffered fetch protocol and the
  // page-cache touch order ARE its semantics, so op::SFetch issues one
  // RequestS per tuple here.
  static constexpr bool kBatchedProbe = false;
  /// Sorts refs[0..n) by `key` the way the paper's §6.1 does: heapsort
  /// (Floyd build + Munro bounce) over an index array, charging the
  /// counted compares, swaps and transfers at the machine's per-primitive
  /// costs, then permutes refs into that order.
  void SortRefs(uint32_t i, exec::SRef* refs, uint64_t n, exec::SortKey key);
  /// Paging intents are meaningless to the simulated page cache (its
  /// replacement policy is the model under study): no-ops.
  void AdviseSegment(uint32_t /*i*/, Seg /*seg*/, exec::AccessIntent /*in*/) {}
  void AdviseRange(uint32_t /*i*/, Seg /*seg*/, uint64_t /*off*/,
                   uint64_t /*len*/, exec::AccessIntent /*in*/) {}

  /// Serial backend: a single worker slot, and every morsel body runs in
  /// it (exec::Backend worker-identity surface).
  uint32_t WorkerSlots() const { return 1; }
  uint32_t WorkerSlot() const { return 0; }

  /// Barrier: sets every Rproc clock to the current maximum.
  void SyncClocks();

  /// Closes the current pass: records the elapsed time and faults since
  /// the previous mark under `label` (for JoinRunResult::passes).
  void MarkPass(const std::string& label);

  /// True if this run synchronizes phases (param or algorithm default).
  bool phase_sync(bool algorithm_default) const {
    return params_.phase_sync.value_or(algorithm_default);
  }

  /// Charges mapping-setup time to every Rproc, multiplied by D since
  /// manipulating a mapping is a serial operation (the paper's convention).
  void ChargeSetupAll(double per_proc_ms);

  /// Assembles the common parts of the result and verifies the output
  /// against the workload's expected join.
  JoinRunResult Finish();

  uint64_t out_count(uint32_t i) const { return out_count_[i]; }

 private:
  void ServiceSBatch(uint32_t i, uint64_t n);

  sim::SimEnv* env_;
  const rel::Workload* workload_;
  JoinParams params_;
  uint32_t d_;
  uint64_t g_bytes_;

  std::vector<std::unique_ptr<sim::Process>> rprocs_;
  std::vector<std::unique_ptr<sim::Process>> sprocs_;

  std::vector<sim::SegId> rp_segs_;
  exec::RpLayout rp_layout_;  // exact RP_{i,j} layout, shared with the
                              // real backend (exec/backend.h)

  struct PendingS {
    uint64_t r_id;
    uint64_t sptr;
  };
  std::vector<std::unique_ptr<sim::GBuffer>> gbufs_;
  std::vector<std::vector<PendingS>> pending_;

  std::vector<uint64_t> out_count_;
  std::vector<uint64_t> out_digest_;
  double setup_ms_ = 0;

  std::vector<PassMark> passes_;
  double last_mark_ms_ = 0;
  uint64_t last_mark_faults_ = 0;
  /// Per-Rproc clock at the previous MarkPass, for per-process pass spans.
  std::vector<double> last_mark_clock_;
};

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_JOIN_COMMON_H_
