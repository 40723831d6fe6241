// The real-mmap execution backend: the same exec::Backend surface as the
// simulator, but partitions run on bounded worker threads against genuine
// mmap(2) memory and wall-clock time.
//
// Mapping of the backend operations onto reality:
//
//   Read/Write        direct pointers into the mapped bytes — touching them
//                     IS the I/O (the kernel pages on demand)
//   Charge*           no-ops: real work costs real time, nothing to model
//   RequestSBatch/    batched S-pointer dereference through the prefetch
//   ProbeRun          kernel (ProbeRefs) into per-worker output tallies (no
//                     G buffer — threads share memory); ProbeRun hands an
//                     SRef band to it in place
//   ForEachPartition* worker threads, at most min(D, max_threads or
//                     hardware_concurrency), running morsel chains on
//                     per-worker deques with work stealing and skew-aware
//                     over-splitting (exec/scheduler.h); one worker runs
//                     the chains inline on the calling thread. The
//                     spawn/join is a hard barrier, giving later steps
//                     happens-before over all earlier cross-partition
//                     writes
//   SyncClocks        no-op (the thread join above is the barrier)
//   CreateSegment     a block of the process-wide temporaries arena
//                     (exec/temp_arena.h): reused resident when an idle one
//                     fits, a fresh anonymous mmap(2) otherwise; the
//                     workload's R_i/S_i arrive as non-owned views into
//                     their file-backed segments
//   DeleteSegment     hands the block back to the arena, pages resident
//   DropSegment       no-op: discard would return the arena's pages to the
//                     kernel (the simulator still charges deleteMap)
//   clock_ms/Span     wall-clock milliseconds since construction; trace
//                     emission is mutex-guarded (obs::TraceRecorder itself
//                     is single-threaded), tracks: pid = partition,
//                     tid 1 = worker, pid = D = the driver track, and
//                     pid = D+1 = the scheduler's worker tracks (morsel
//                     spans, steal instants, tail-idle)
//   MarkPass          wall-time pass boundaries with page-fault deltas
//                     summed from per-thread RUSAGE_THREAD counters (the
//                     process-wide RUSAGE_SELF double-counts when passes
//                     overlap), so real runs report the same PassMark
//                     shape the simulator does
//   Tuple             SRef: RP, RS and sort-merge's runs hold 16-byte
//                     (r_id, sptr) refs, not 128-byte objects — after R is
//                     first read the join needs nothing else
//   AppendToRp        one bounded cursor claim + one 16-byte copy straight
//                     into the RP band: the arena keeps the bands resident,
//                     so staging would only be a second copy
//   NUMA placement    numa=interleave mbinds freshly mapped temporaries
//                     round-robin across nodes before first touch; numa=local
//                     pre-faults each RP band on its owning worker
//                     (exec/numa.h; counted no-ops on single-node hosts)
//
// Thread-safety relies on the drivers' ownership discipline (one writer
// per target within any pass/phase — see exec/join_drivers.h) and the
// scheduler's chain rule (morsels that share a target run in order under
// one owner); the backend adds mutexes only around the segment registry
// and the trace recorder.
#ifndef MMJOIN_EXEC_REAL_BACKEND_H_
#define MMJOIN_EXEC_REAL_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/backend.h"
#include "exec/kernels.h"
#include "exec/numa.h"
#include "exec/scheduler.h"
#include "exec/temp_arena.h"
#include "join/join_common.h"
#include "mmap/mm_relation.h"
#include "obs/trace.h"
#include "rel/relation.h"
#include "sim/machine_config.h"
#include "util/status.h"

namespace mmjoin::exec {

namespace real_internal {
/// Worker slot of the current thread inside a ForEachPartition* region
/// (0 outside one). Indexes the per-worker output tallies so independent
/// morsels of one partition never contend on a shared accumulator.
extern thread_local uint32_t worker_slot;
}  // namespace real_internal

/// One mapped area known to the RealBackend: either an owned temporaries-
/// arena block (a temporary the backend created) or a non-owned view into
/// the workload's file-backed segments. Heap-allocated with a stable
/// address — the `RealSeg*` itself is the backend's segment handle.
struct RealSeg {
  std::string name;
  uint8_t* base = nullptr;
  uint64_t bytes = 0;      ///< logical size
  uint64_t map_bytes = 0;  ///< whole arena block size (owned only)
  bool owned = false;      ///< true: arena block to release on delete
  bool live = true;
  /// Owned only: every page of the block is resident, so a kPopulateWrite
  /// intent has nothing left to do. Travels with the block through the
  /// arena.
  bool populated = false;
};

/// Execution tunables of the real backend.
struct RealBackendOptions {
  /// Worker-thread bound; 0 = std::thread::hardware_concurrency(). The
  /// worker count is always min(D, bound): when D exceeds it, workers
  /// share the partitions' morsel chains through stealing; 1 runs every
  /// chain on the calling thread.
  uint32_t max_threads = 0;
  uint64_t morsel_tuples = 0;  ///< tuples per morsel; 0 = default (16 Ki)
  /// mmap paging policy (DESIGN.md §7.2): kNone issues no hints, kAdvise
  /// maps driver AccessIntents onto madvise(2).
  PagingMode paging = PagingMode::kAdvise;
  /// NUMA placement of owned temporaries (exec/numa.h); degrades to
  /// counted no-ops on single-node hosts.
  NumaMode numa = NumaMode::kNone;
  obs::TraceRecorder* trace = nullptr;  ///< optional wall-clock trace
  /// External shared worker pool (multi-query service mode). When set the
  /// backend spawns no threads of its own: every partition pass is
  /// submitted to the pool as a chain set and interleaves, at morsel
  /// granularity, with chain sets submitted by concurrent queries. The
  /// worker count becomes pool->workers() (max_threads is ignored — the
  /// pool's shape wins), and `priority` sets the submission's
  /// weighted-round-robin class. The pool must outlive the backend.
  /// nullptr = classic one-run ownership.
  SharedWorkerPool* pool = nullptr;
  QueryPriority priority = QueryPriority::kNormal;
};

/// The real runtime. Models exec::Backend (static_assert at the bottom),
/// so the unified drivers in exec/join_drivers.h run on it unchanged.
class RealBackend {
 public:
  using Seg = RealSeg*;
  /// Temporaries hold (r_id, sptr) refs, narrowed once as R leaves its
  /// scan (op::Partition).
  using Tuple = SRef;

  RealBackend(const mm::MmWorkload& workload, const join::JoinParams& params,
              const RealBackendOptions& options);
  ~RealBackend();

  RealBackend(const RealBackend&) = delete;
  RealBackend& operator=(const RealBackend&) = delete;

  // ---- shape & parameters -------------------------------------------------
  uint32_t D() const { return d_; }
  /// Machine constants are used only to shape plans (IRUN/K derivation,
  /// page-size rounding); charges against them are no-ops here. Using the
  /// same constants as the simulator keeps the derived plans identical.
  const sim::MachineConfig& mc() const { return mc_; }
  uint32_t workers() const { return workers_; }

  // ---- workload view ------------------------------------------------------
  Seg r_seg(uint32_t i) const { return r_view_[i].get(); }
  Seg s_seg(uint32_t i) const { return s_view_[i].get(); }
  uint64_t r_count(uint32_t i) const { return workload_->r_count[i]; }
  uint64_t s_count(uint32_t i) const { return workload_->s_count[i]; }
  uint64_t SubCount(uint32_t i, uint32_t j) const {
    return workload_->counts[i][j];
  }
  const rel::RObject* RawR(uint32_t i) const {
    return workload_->RObjects(i);
  }
  rel::BucketMemo& bucket_memo() const { return workload_->bucket_memo; }

  // ---- segments -----------------------------------------------------------
  /// A temporaries-arena block of at least `bytes`; its contents are
  /// undefined (possibly another join's stale tuples). `disk` is carried
  /// in the name only — placement is the kernel's business here.
  StatusOr<Seg> CreateSegment(const std::string& name, uint32_t disk,
                              uint64_t bytes);
  Status DeleteSegment(Seg seg);
  uint64_t SegPages(Seg seg) const {
    return (seg->bytes + mc_.page_size - 1) / mc_.page_size;
  }

  // ---- RP temporaries -----------------------------------------------------
  Status CreateRpSegments();
  Seg rp_seg(uint32_t i) const { return rp_segs_[i]; }
  uint64_t RpSubOffset(uint32_t i, uint32_t j) const {
    return rp_layout_.SubOffset(i, j);
  }
  uint64_t RpSubCount(uint32_t i, uint32_t j) const {
    return rp_layout_.SubCount(i, j);
  }
  uint64_t RpPages(uint32_t i) const { return SegPages(rp_segs_[i]); }
  /// Appends one ref to RP_{i,j}: one bounded cursor claim, one 16-byte
  /// copy into the band; false, with nothing written, when the band is
  /// full. Partition i's pass chain has one owner at a time, so the layout
  /// cursor needs no lock.
  [[nodiscard]] bool AppendToRp(uint32_t i, uint32_t j, const Tuple& ref) {
    const std::optional<uint64_t> off = rp_layout_.NextSlot(i, j);
    if (!off) return false;
    std::memcpy(rp_segs_[i]->base + *off, &ref, sizeof(ref));
    return true;
  }
  bool RpFilled() const { return rp_layout_.Filled(); }

  // ---- per-partition operations -------------------------------------------
  const void* Read(uint32_t /*i*/, Seg seg, uint64_t offset,
                   uint64_t /*len*/) const {
    return seg->base + offset;
  }
  void* Write(uint32_t /*i*/, Seg seg, uint64_t offset, uint64_t /*len*/) {
    return seg->base + offset;
  }
  void ChargeCpu(uint32_t /*i*/, double /*ms*/) {}
  void ChargeSetup(uint32_t /*i*/, double /*ms*/) {}
  /// deleteMap's discard would hand the pages back to the kernel, and
  /// owned temporaries go back to the arena resident instead; on workload
  /// views neither discard nor write-back has anything to do. A no-op.
  void DropSegment(uint32_t /*i*/, Seg /*seg*/, bool /*discard*/) {}

  /// No G buffer to drain: threads share the address space, so every
  /// batch is dereferenced the moment it is handed over.
  void FlushSRequests(uint32_t /*i*/) {}

  // ---- batched dereference kernels ----------------------------------------
  /// Every probe site batches (exec/backend.h). The tallies are indexed by
  /// the executing *worker*, not the partition, so independent morsels of
  /// one partition never share an accumulator; the final sums are
  /// order-independent, keeping output count/checksum bit-deterministic
  /// across steal orders and worker counts.
  static constexpr bool kBatchedProbe = true;
  // Batches run the prefetch pipeline in the caller's order. (Clustering
  // each batch by target S address before probing was tried and REJECTED
  // by measurement: the sort cost exceeded the locality gain on every
  // algorithm once the page cache is warm — 0.83–0.96x vs the unsorted
  // pipeline's 1.05–1.46x against scalar.)
  void RequestSBatch(uint32_t /*i*/, const SRef* refs, uint64_t n) {
    ProbeRefs(refs, n, s_objs_.data(), kDefaultPrefetchDistance,
              &tallies_[real_internal::worker_slot]);
  }
  void ProbeRun(uint32_t /*i*/, Seg seg, uint64_t offset, uint64_t n) {
    ProbeRefs(reinterpret_cast<const Tuple*>(seg->base + offset), n,
              s_objs_.data(), kDefaultPrefetchDistance,
              &tallies_[real_internal::worker_slot]);
  }

  /// Stable radix sort (exec/kernels.h); charges nothing.
  void SortRefs(uint32_t /*i*/, SRef* refs, uint64_t n, SortKey key) {
    RadixSortRefs(refs, n, key);
  }

  // ---- paging policy ------------------------------------------------------
  /// Maps the driver's declared access intent onto madvise(2) for (a range
  /// of) a segment. No-op under paging=none. On owned temporaries
  /// kPopulateWrite is skipped once the block is populated. No driver
  /// retires arena-owned bands with kDontNeed: the arena keeps their pages
  /// for the next join. Failures never surface to the join path
  /// (advice cannot affect results): they are counted in
  /// join.paging.advise_errors and the first one is kept in DeferredError().
  void AdviseSegment(uint32_t i, Seg seg, AccessIntent intent) {
    AdviseRange(i, seg, 0, seg->owned ? seg->map_bytes : seg->bytes, intent);
  }
  void AdviseRange(uint32_t i, Seg seg, uint64_t offset, uint64_t length,
                   AccessIntent intent);
  /// First paging-advice failure of the run (OK when none); callers decide
  /// whether hints failing is worth reporting.
  Status DeferredError() const {
    std::lock_guard<std::mutex> lock(paging_mu_);
    return paging_status_;
  }
  /// First NUMA-placement failure of the run (OK when none, including the
  /// single-node degradation — that is a no-op, not an error).
  Status NumaDeferredError() const {
    std::lock_guard<std::mutex> lock(paging_mu_);
    return numa_status_;
  }

  // ---- execution structure ------------------------------------------------
  /// Runs fn(i) for every partition on workers() threads and joins them
  /// all before returning — a barrier that publishes all cross-partition
  /// writes. Unit cost estimates; see the costed overload.
  template <typename Fn>
  void ForEachPartition(Fn&& fn) {
    ForEachPartition(std::vector<uint64_t>(), std::forward<Fn>(fn));
  }

  /// Costed flavor: `costs[i]` estimates partition i's work (tuples) so the
  /// scheduler can seed deques longest-first. The partition body stays
  /// monolithic — one single-morsel chain per partition. An empty costs
  /// vector means unit costs.
  template <typename Fn>
  void ForEachPartition(const std::vector<uint64_t>& costs, Fn&& fn) {
    std::vector<MorselChain> chains;
    chains.reserve(d_);
    for (uint32_t i = 0; i < d_; ++i) {
      const uint64_t cost =
          std::max<uint64_t>(1, i < costs.size() ? costs[i] : 1);
      chains.push_back(MorselChain{i, cost, ChainNode(i), {Morsel{i, 0, cost}}});
    }
    RunChains(std::move(chains),
              [&](uint32_t, const Morsel& m) { fn(m.partition); });
  }

  /// Tuple-range flavor: runs body(i, begin, end) over morsel-sized ranges
  /// covering [0, counts[i]) for every partition. With independent=false
  /// the ranges of a partition share an output target: they form one chain,
  /// executed in order by one owner at a time (a zero-count partition still
  /// gets one body(i, 0, 0) call so epilogues run). independent=true
  /// declares the ranges free of shared targets — each becomes its own
  /// chain and a hot partition can spread across every worker.
  template <typename Body>
  void ForEachPartitionTuples(const std::vector<uint64_t>& counts,
                              Body&& body, bool independent) {
    std::vector<MorselChain> chains =
        BuildChains(counts, sched_options_, independent);
    if (node_affine_) {
      for (MorselChain& c : chains) c.node = ChainNode(c.partition);
    }
    RunChains(std::move(chains), [&](uint32_t, const Morsel& m) {
      body(m.partition, m.begin, m.end);
    });
  }

  void SyncClocks() {}  // the workers' join is the real barrier
  void ChargeSetupAll(double /*per_proc_ms*/) {}
  void MarkPass(const std::string& label);

  /// Worker-identity surface (exec::Backend): WorkerSlots() bounds the
  /// per-worker state space; WorkerSlot() is the executing worker's slot
  /// inside a ForEachPartition* body (thread-local, 0 outside a region).
  uint32_t WorkerSlots() const { return std::max(1u, workers_); }
  uint32_t WorkerSlot() const { return real_internal::worker_slot; }

  // ---- observability ------------------------------------------------------
  bool tracing() const { return trace_ != nullptr; }
  /// Wall-clock milliseconds since backend construction (same epoch for
  /// every partition — real threads share one clock).
  double clock_ms(uint32_t i) const;
  void Span(uint32_t i, const std::string& name, const std::string& cat,
            double start_ms, std::vector<obs::TraceArg> args = {});

  /// Assembles the run result: wall-clock total, pass marks, output tallies
  /// verified against the workload's expected join, rusage fault deltas,
  /// scheduler telemetry (morsels/steals/idle).
  join::JoinRunResult Finish();

 private:
  /// Faults since construction as seen from the *main* thread: the sum of
  /// every finished worker thread's RUSAGE_THREAD delta plus the main
  /// thread's own. Only meaningful between passes (after the spawn/join
  /// barrier) and only on the thread that constructed the backend.
  uint64_t FaultsSinceStart() const {
    return worker_faults_.load(std::memory_order_relaxed) + ThreadFaults() -
           main_start_faults_;
  }

  /// The contiguous partition-to-node map (p * nodes / D), so a
  /// partition's chains are dealt to workers of its home node. kAnyNode
  /// when node-affine scheduling is off.
  uint32_t ChainNode(uint32_t partition) const {
    if (!node_affine_) return kAnyNode;
    return static_cast<uint32_t>(uint64_t{partition} * placement_nodes_ / d_);
  }

  /// Executes the chains through the work-stealing pool (or, in service
  /// mode, submits them to the external SharedWorkerPool), wiring the
  /// worker slot, per-worker trace tracks, and telemetry accumulation.
  void RunChains(std::vector<MorselChain> chains,
                 const std::function<void(uint32_t, const Morsel&)>& body);

  const mm::MmWorkload* workload_;
  sim::MachineConfig mc_;
  uint32_t d_;
  uint32_t workers_;
  SchedulerOptions sched_options_;
  PagingMode paging_;
  NumaMode numa_;
  uint32_t detected_nodes_ = 1;  ///< nodes the host really has
  /// True when node-affine scheduling is armed: numa=local on an own
  /// (non-pool) multi-worker run with a multi-node fan-out. Workers get
  /// home nodes, chains get node tags, and spawned threads pin to their
  /// node's cpus.
  bool node_affine_ = false;
  uint32_t placement_nodes_ = 1;  ///< min(detected_nodes_, D): map's range
  NumaTopology topo_;             ///< cached for worker pinning
  SharedWorkerPool* pool_;  ///< external pool (service mode), or nullptr
  QueryPriority priority_;  ///< WRR class of this backend's submissions
  obs::TraceRecorder* trace_;
  std::mutex trace_mu_;

  double start_epoch_ms_ = 0;  ///< steady_clock at construction
  /// The constructing thread's RUSAGE_THREAD fault count at construction.
  uint64_t main_start_faults_ = 0;
  /// Fault deltas of every *finished* spawned worker thread, accumulated
  /// at each pass's join barrier.
  std::atomic<uint64_t> worker_faults_{0};

  std::vector<std::unique_ptr<RealSeg>> r_view_, s_view_;
  std::vector<const rel::SObject*> s_objs_;

  std::mutex segs_mu_;
  std::vector<std::unique_ptr<RealSeg>> owned_;

  RpLayout rp_layout_;
  std::vector<Seg> rp_segs_;

  /// Output tallies per worker slot (not per partition): summed at Finish,
  /// commutatively, so neither steal order nor the kernels' freedom to
  /// reorder dereferences within a batch can change the result.
  std::vector<KernelTally> tallies_;

  /// Paging-policy telemetry; advice is issued from worker threads.
  std::atomic<uint64_t> advise_calls_{0}, advise_bytes_{0}, advise_errors_{0};
  /// NUMA-placement telemetry; first-touch runs on worker threads.
  std::atomic<uint64_t> mbind_calls_{0}, mbind_errors_{0},
      first_touch_pages_{0};
  mutable std::mutex paging_mu_;
  Status paging_status_;  ///< first advice failure (guarded by paging_mu_)
  Status numa_status_;    ///< first placement failure (guarded by paging_mu_)

  /// Scheduler telemetry accumulated across every RunChains barrier.
  std::vector<WorkerRunStats> sched_totals_;

  std::vector<join::PassMark> passes_;
  double last_mark_ms_ = 0;
  uint64_t last_mark_faults_ = 0;
};

static_assert(Backend<RealBackend>,
              "RealBackend must satisfy the execution-backend concept");

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_REAL_BACKEND_H_
