#include "exec/real_backend.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

namespace mmjoin::exec {

namespace real_internal {
thread_local uint32_t worker_slot = 0;
}  // namespace real_internal

namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ResolveWorkers(uint32_t d, const RealBackendOptions& options) {
  // An external pool fixes the worker-slot space: every morsel body runs
  // with worker in [0, pool->workers()), so the per-slot arrays must match
  // the pool regardless of D or the caller's thread bound.
  if (options.pool != nullptr) return options.pool->workers();
  return EffectiveWorkers(d, options.max_threads);
}

SchedulerOptions ResolveScheduler(uint32_t workers,
                                  const RealBackendOptions& options) {
  SchedulerOptions so;
  so.workers = workers;
  so.morsel_tuples =
      options.morsel_tuples ? options.morsel_tuples : kDefaultMorselTuples;
  return so;
}

}  // namespace

RealBackend::RealBackend(const mm::MmWorkload& workload,
                         const join::JoinParams& params,
                         const RealBackendOptions& options)
    : workload_(&workload),
      mc_(sim::MachineConfig::SequentSymmetry1996()),
      d_(static_cast<uint32_t>(workload.r_segs.size())),
      workers_(ResolveWorkers(static_cast<uint32_t>(workload.r_segs.size()),
                              options)),
      sched_options_(ResolveScheduler(workers_, options)),
      paging_(options.paging),
      numa_(options.numa),
      pool_(options.pool),
      priority_(options.priority),
      trace_(options.trace) {
  (void)params;  // plan shaping reads params through the drivers
  start_epoch_ms_ = SteadyNowMs();
  main_start_faults_ = ThreadFaults();
  detected_nodes_ = DetectNumaNodes();
  node_affine_ = pool_ == nullptr && numa_ == NumaMode::kLocal &&
                 detected_nodes_ > 1 && workers_ > 1 && d_ > 1;
  if (node_affine_) {
    // Node-affine scheduling: worker w's home node is w*N/W (the same
    // contiguous-split shape as the partition map), chains carry their
    // partition's home node, and each spawned worker pins itself to its
    // node's cpus. All of it is locality-only — results are unchanged.
    placement_nodes_ = std::min(detected_nodes_, d_);
    topo_ = QueryNumaTopology();
    sched_options_.worker_node.resize(workers_);
    for (uint32_t w = 0; w < workers_; ++w) {
      sched_options_.worker_node[w] =
          static_cast<uint32_t>(uint64_t{w} * placement_nodes_ / workers_);
    }
    sched_options_.worker_start = [this](uint32_t w) {
      bool applied = false;
      // Pinning is a pure locality hint; on hosts without the forced node
      // count (or without affinity syscalls) it is a silent no-op.
      (void)PinThreadToNode(sched_options_.worker_node[w], topo_, &applied);
    };
  }
  rp_segs_.assign(d_, nullptr);
  tallies_.assign(std::max(1u, workers_), KernelTally{});
  sched_totals_.assign(std::max(1u, workers_), WorkerRunStats{});
  for (uint32_t i = 0; i < d_; ++i) {
    auto r = std::make_unique<RealSeg>();
    r->name = "R" + std::to_string(i);
    r->base = const_cast<uint8_t*>(reinterpret_cast<const uint8_t*>(
        workload.RObjects(i)));
    r->bytes = workload.r_count[i] * sizeof(rel::RObject);
    r_view_.push_back(std::move(r));

    auto s = std::make_unique<RealSeg>();
    s->name = "S" + std::to_string(i);
    s->base = const_cast<uint8_t*>(reinterpret_cast<const uint8_t*>(
        workload.SObjects(i)));
    s->bytes = workload.s_count[i] * sizeof(rel::SObject);
    s_view_.push_back(std::move(s));

    s_objs_.push_back(workload.SObjects(i));
  }
  if (trace_) {
    // Track convention mirrors the simulator's: pid = partition index,
    // tid 1 = its worker's activity; one extra "driver" process carries the
    // whole-run pass spans, and pid = D+1 hosts the scheduler's per-worker
    // tracks (morsels, steals, tail-idle).
    for (uint32_t i = 0; i < d_; ++i) {
      trace_->SetProcessName(i, "partition " + std::to_string(i));
      trace_->SetThreadName(i, 1, "worker");
    }
    trace_->SetProcessName(d_, "driver");
    trace_->SetThreadName(d_, 1, "passes");
    trace_->SetProcessName(d_ + 1, "scheduler");
    for (uint32_t t = 0; t < workers_; ++t) {
      trace_->SetThreadName(d_ + 1, t + 1, "worker " + std::to_string(t));
    }
  }
}

RealBackend::~RealBackend() {
  // Temporaries a failed driver left behind go back to the arena, too.
  for (auto& seg : owned_) {
    if (seg->live) {
      TempArena::Global().Release(
          TempBlock{seg->base, seg->map_bytes, seg->populated, false});
      seg->live = false;
    }
  }
}

StatusOr<RealBackend::Seg> RealBackend::CreateSegment(const std::string& name,
                                                      uint32_t disk,
                                                      uint64_t bytes) {
  // A fresh block is mapped unpopulated: paging=advise leaves pre-faulting
  // to the drivers' POPULATE_WRITE intents, so only temporaries that are
  // about to be filled pay for their pages up front. A reused block comes
  // back as it was released.
  StatusOr<TempBlock> acquired = TempArena::Global().Acquire(bytes);
  if (!acquired.ok()) {
    return Status::IOError("segment " + name + ": " +
                           acquired.status().message());
  }
  const TempBlock block = *acquired;
  void* base = block.base;
  const uint64_t map_bytes = block.bytes;
  // Interleave shapes a block's first touch, so it applies to fresh blocks
  // only: a reused block's pages are already placed.
  if (block.fresh && numa_ == NumaMode::kInterleave) {
    // Single-node hosts: applied=false, a counted no-op, never an error.
    bool applied = false;
    const Status st =
        BindInterleaved(base, map_bytes, detected_nodes_, &applied);
    if (applied) mbind_calls_.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) {
      mbind_errors_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(paging_mu_);
      if (numa_status_.ok()) numa_status_ = st;
    }
  }
  auto seg = std::make_unique<RealSeg>();
  seg->name = name + "@d" + std::to_string(disk);
  seg->base = static_cast<uint8_t*>(base);
  seg->bytes = bytes;
  seg->map_bytes = map_bytes;
  seg->owned = true;
  seg->populated = block.populated;
  Seg handle = seg.get();
  {
    std::lock_guard<std::mutex> lock(segs_mu_);
    owned_.push_back(std::move(seg));
  }
  return handle;
}

Status RealBackend::DeleteSegment(Seg seg) {
  if (seg == nullptr || !seg->owned) {
    return Status::InvalidArgument("cannot delete a workload segment");
  }
  std::lock_guard<std::mutex> lock(segs_mu_);
  if (!seg->live) return Status::InvalidArgument("segment already deleted");
  TempArena::Global().Release(
      TempBlock{seg->base, seg->map_bytes, seg->populated, false});
  seg->base = nullptr;
  seg->live = false;
  return Status::OK();
}

void RealBackend::AdviseRange(uint32_t i, Seg seg, uint64_t offset,
                              uint64_t length, AccessIntent intent) {
  if (paging_ == PagingMode::kNone || seg == nullptr || !seg->live ||
      seg->base == nullptr || length == 0) {
    return;
  }
  if (seg->owned && intent == AccessIntent::kPopulateWrite &&
      seg->populated) {
    // Every page of the arena block is already resident.
    return;
  }
  if (numa_ == NumaMode::kLocal && seg->owned &&
      intent == AccessIntent::kPopulateWrite) {
    // Bulk pre-faulting an owned temporary would place all its pages on
    // the advising thread's node; numa=local wants first touch to stay
    // with each range's writer (and RP bands are pre-faulted by their
    // owners in CreateRpSegments), so the populate hint is skipped.
    return;
  }
  // Owned temporaries advise their page-rounded mapping; workload views
  // advise their logical extent — they point into the middle of the page-
  // granular file mapping, and AdviseMappedRange's outward page rounding
  // stays inside it.
  const uint64_t extent = seg->owned ? seg->map_bytes : seg->bytes;
  if (offset >= extent) return;
  uint64_t advised = 0;
  const Status st = mm::AdviseMappedRange(
      seg->base, extent, offset, std::min(length, extent - offset), intent,
      &advised);
  advise_calls_.fetch_add(1, std::memory_order_relaxed);
  advise_bytes_.fetch_add(advised, std::memory_order_relaxed);
  if (!st.ok()) {
    advise_errors_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(paging_mu_);
    if (paging_status_.ok()) paging_status_ = st;
  } else if (seg->owned && intent == AccessIntent::kPopulateWrite &&
             advised >= seg->map_bytes) {
    seg->populated = true;
  }
  if (trace_) {
    const double now = clock_ms(i);
    std::lock_guard<std::mutex> lock(trace_mu_);
    trace_->Instant(i, 1,
                    std::string("advise ") + mm::AccessIntentName(intent),
                    "paging", now, {obs::Arg("bytes", advised)});
  }
}

Status RealBackend::CreateRpSegments() {
  rp_layout_.Init(workload_->counts, sizeof(Tuple));
  for (uint32_t i = 0; i < d_; ++i) {
    MMJOIN_ASSIGN_OR_RETURN(
        rp_segs_[i],
        CreateSegment("RP" + std::to_string(i), i, rp_layout_.TotalBytes(i)));
  }
  if (numa_ == NumaMode::kLocal) {
    // First-touch placement: partition i's worker writes one byte per page
    // of RP_i before any pass fills it, so the band's pages land on the
    // node of the worker that will produce (and later consume) them. No
    // pass has written RP_i yet, so writing zero is invisible to the join.
    // On a single-node host this is just a pre-fault — counted, harmless.
    const uint64_t page = mc_.page_size;
    ForEachPartition([&](uint32_t i) {
      const double start = tracing() ? clock_ms(i) : 0;
      RealSeg* seg = rp_segs_[i];
      uint64_t pages = 0;
      for (uint64_t off = 0; off < seg->map_bytes; off += page) {
        seg->base[off] = 0;
        ++pages;
      }
      seg->populated = true;
      first_touch_pages_.fetch_add(pages, std::memory_order_relaxed);
      if (tracing()) {
        Span(i, "numa-first-touch", "numa", start,
             {obs::Arg("pages", pages)});
      }
    });
  }
  return Status::OK();
}

double RealBackend::clock_ms(uint32_t /*i*/) const {
  return SteadyNowMs() - start_epoch_ms_;
}

void RealBackend::Span(uint32_t i, const std::string& name,
                       const std::string& cat, double start_ms,
                       std::vector<obs::TraceArg> args) {
  if (!trace_) return;
  const double now = clock_ms(i);
  std::lock_guard<std::mutex> lock(trace_mu_);
  trace_->Complete(i, 1, name, cat, start_ms, now - start_ms,
                   std::move(args));
}

void RealBackend::RunChains(
    std::vector<MorselChain> chains,
    const std::function<void(uint32_t, const Morsel&)>& body) {
  WorkStealingScheduler::ChainFn on_chain;
  if (trace_) {
    on_chain = [this](uint32_t w, const MorselChain& c, bool stolen) {
      if (!stolen) return;
      const double now = clock_ms(0);
      std::lock_guard<std::mutex> lock(trace_mu_);
      trace_->Instant(d_ + 1, w + 1, "steal p" + std::to_string(c.partition),
                      "sched", now,
                      {obs::Arg("partition", uint64_t{c.partition}),
                       obs::Arg("cost", c.cost)});
    };
  }

  // The same wrapped body on both paths: the worker slot is (re)pinned per
  // morsel — on a shared pool the same OS thread interleaves morsels of
  // many backends, each indexing its own per-slot arrays.
  const auto run_morsel = [&](uint32_t w, const Morsel& m) {
    real_internal::worker_slot = w;
    const double start = trace_ ? clock_ms(0) : 0;
    body(w, m);
    if (trace_) {
      const double now = clock_ms(0);
      std::lock_guard<std::mutex> lock(trace_mu_);
      trace_->Complete(d_ + 1, w + 1,
                       "morsel p" + std::to_string(m.partition), "sched",
                       start, now - start,
                       {obs::Arg("begin", m.begin), obs::Arg("end", m.end)});
    }
  };

  std::vector<WorkerRunStats> pool_stats;
  const std::vector<WorkerRunStats>* stats_src = nullptr;
  if (pool_ != nullptr) {
    pool_->RunChainSet(std::move(chains), run_morsel, on_chain, priority_,
                       &pool_stats);
    stats_src = &pool_stats;
  } else {
    WorkStealingScheduler sched(sched_options_,
                                [this] { return clock_ms(0); });
    sched.Run(std::move(chains), run_morsel, on_chain);
    stats_src = &sched.worker_stats();
    // sched is about to die; copy before leaving the scope.
    pool_stats = *stats_src;
    stats_src = &pool_stats;
  }

  // Accumulate the pass's telemetry into the run totals; tail-idle spans go
  // on the worker tracks so skew is visible in the trace.
  const std::vector<WorkerRunStats>& stats = *stats_src;
  for (uint32_t w = 0; w < stats.size() && w < sched_totals_.size(); ++w) {
    // Spawned scheduler threads report their own RUSAGE_THREAD deltas
    // (zero on the inline path, whose faults the main thread's counter
    // already covers).
    worker_faults_.fetch_add(stats[w].faults, std::memory_order_relaxed);
    sched_totals_[w].chains += stats[w].chains;
    sched_totals_[w].morsels += stats[w].morsels;
    sched_totals_[w].steals += stats[w].steals;
    sched_totals_[w].steal_failures += stats[w].steal_failures;
    sched_totals_[w].idle_ms += stats[w].idle_ms;
    if (trace_ && stats[w].idle_ms > 0.01) {
      std::lock_guard<std::mutex> lock(trace_mu_);
      trace_->Complete(d_ + 1, w + 1, "idle", "sched", stats[w].done_ms,
                       stats[w].idle_ms);
    }
  }
}

void RealBackend::MarkPass(const std::string& label) {
  const double now = clock_ms(0);
  // push_back before reading the fault counter, so any heap fault the
  // push itself takes lands inside this pass's delta — that keeps
  // sum(passes[i].faults) exactly equal to the run total (Finish pins the
  // invariant; real_backend_test regresses it).
  passes_.push_back(join::PassMark{label, now - last_mark_ms_, 0});
  const uint64_t faults = FaultsSinceStart();
  passes_.back().faults = faults - last_mark_faults_;
  if (trace_) {
    std::lock_guard<std::mutex> lock(trace_mu_);
    trace_->Complete(d_, 1, label, "pass", last_mark_ms_, now - last_mark_ms_);
  }
  last_mark_ms_ = now;
  last_mark_faults_ = faults;
}

join::JoinRunResult RealBackend::Finish() {
  // Read the fault total before anything below allocates, then attribute
  // the (tiny) tail since the driver's last MarkPass — segment deletes,
  // trace drains — to the final pass: that keeps `faults` honest AND
  // exactly equal to the sum of the per-pass deltas.
  const uint64_t total_faults = FaultsSinceStart();
  if (!passes_.empty()) {
    passes_.back().faults += total_faults - last_mark_faults_;
    last_mark_faults_ = total_faults;
  }
  join::JoinRunResult r;
  r.faults = total_faults;
  r.elapsed_ms = clock_ms(0);
  r.rproc_ms.assign(d_, r.elapsed_ms);
  r.passes = passes_;
  for (const KernelTally& t : tallies_) {
    r.output_count += t.count;
    r.output_checksum += t.digest;
    r.kernel_batches += t.batches;
    r.kernel_requests += t.requests;
    r.kernel_prefetches += t.prefetches;
  }
  r.paging_advise_calls = advise_calls_.load(std::memory_order_relaxed);
  r.paging_advise_bytes = advise_bytes_.load(std::memory_order_relaxed);
  r.paging_advise_errors = advise_errors_.load(std::memory_order_relaxed);
  if (numa_ != NumaMode::kNone) {
    r.numa_nodes = detected_nodes_;
    r.numa_mbind_calls = mbind_calls_.load(std::memory_order_relaxed);
    r.numa_mbind_errors = mbind_errors_.load(std::memory_order_relaxed);
    r.numa_first_touch_pages =
        first_touch_pages_.load(std::memory_order_relaxed);
  }
  for (const WorkerRunStats& st : sched_totals_) {
    r.sched_morsels += st.morsels;
    r.sched_steals += st.steals;
    r.sched_steal_failures += st.steal_failures;
    r.sched_idle_ms += st.idle_ms;
  }
  r.verified = r.output_count == workload_->expected_output_count &&
               r.output_checksum == workload_->expected_checksum;
  r.threads_used = workers_;
  return r;
}

}  // namespace mmjoin::exec
