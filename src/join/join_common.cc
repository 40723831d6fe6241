#include "join/join_common.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>

#include "heap/heapsort.h"

namespace mmjoin::join {

JoinExecution::JoinExecution(sim::SimEnv* env, const rel::Workload& workload,
                             const JoinParams& params)
    : env_(env),
      workload_(&workload),
      params_(params),
      d_(static_cast<uint32_t>(workload.r_segs.size())),
      g_bytes_(params.g_bytes ? params.g_bytes : env->config().page_size) {
  const uint64_t entry_bytes =
      sizeof(rel::RObject) + sizeof(uint64_t) + sizeof(rel::SObject);
  for (uint32_t i = 0; i < d_; ++i) {
    rprocs_.push_back(std::make_unique<sim::Process>(
        env_, "Rproc" + std::to_string(i), params_.m_rproc_bytes,
        params_.policy));
    sprocs_.push_back(std::make_unique<sim::Process>(
        env_, "Sproc" + std::to_string(i), params_.m_sproc_bytes,
        params_.policy));
    gbufs_.push_back(std::make_unique<sim::GBuffer>(g_bytes_, entry_bytes));
  }
  pending_.resize(d_);
  out_count_.assign(d_, 0);
  out_digest_.assign(d_, 0);
  rp_segs_.assign(d_, sim::kInvalidSeg);
  last_mark_clock_.assign(d_, 0);
  // Trace-track convention (DESIGN.md §Observability): pid = disk index,
  // tid 1 = Rproc_i, tid 2 = Sproc_i.
  if (env_->trace()) {
    for (uint32_t i = 0; i < d_; ++i) {
      env_->trace()->SetProcessName(i, "disk " + std::to_string(i));
      rprocs_[i]->BindTraceTrack(i, 1, "Rproc " + std::to_string(i));
      sprocs_[i]->BindTraceTrack(i, 2, "Sproc " + std::to_string(i));
    }
  }
}

JoinExecution::~JoinExecution() {
  // Temporaries are deleted by the drivers; if a driver errored out early,
  // drop whatever is still live so the environment can be reused.
  for (uint32_t i = 0; i < d_; ++i) {
    if (rp_segs_[i] != sim::kInvalidSeg && env_->IsLive(rp_segs_[i])) {
      rprocs_[i]->DropSegment(rp_segs_[i], /*discard=*/true);
      (void)env_->DeleteSegment(rp_segs_[i]);
    }
  }
}

Status JoinExecution::CreateRpSegments() {
  rp_layout_.Init(workload_->counts, sizeof(Tuple));
  for (uint32_t i = 0; i < d_; ++i) {
    // An RP can be empty (D = 1, or pathological skew); RpLayout keeps one
    // object of width so the segment machinery has something to map.
    MMJOIN_ASSIGN_OR_RETURN(
        rp_segs_[i],
        env_->CreateSegment("RP" + std::to_string(i), i,
                            rp_layout_.TotalBytes(i),
                            /*materialized=*/false));
  }
  return Status::OK();
}

uint64_t JoinExecution::RpSubOffset(uint32_t i, uint32_t j) const {
  return rp_layout_.SubOffset(i, j);
}

uint64_t JoinExecution::RpSubCount(uint32_t i, uint32_t j) const {
  assert(j != i);
  return rp_layout_.SubCount(i, j);
}

uint64_t JoinExecution::RpPages(uint32_t i) const {
  return env_->segment(rp_segs_[i]).pages();
}

bool JoinExecution::AppendToRp(uint32_t i, uint32_t j, const Tuple& obj) {
  const std::optional<uint64_t> off = rp_layout_.NextSlot(i, j);
  if (!off) return false;
  void* dst = rprocs_[i]->Write(rp_segs_[i], *off, sizeof(Tuple));
  std::memcpy(dst, &obj, sizeof(Tuple));
  rprocs_[i]->ChargeCpu(sizeof(Tuple) * env_->config().mt_pp_ms);
  return true;
}

void JoinExecution::ServiceSBatch(uint32_t i, uint64_t n) {
  assert(n <= pending_[i].size());
  auto& queue = pending_[i];
  sim::Process& payer = *rprocs_[i];
  const double batch_start_ms = payer.clock_ms();
  for (uint64_t k = 0; k < n; ++k) {
    const PendingS& req = queue[k];
    const rel::SPtr sp = rel::SPtr::Unpack(req.sptr);
    assert(sp.partition < d_);
    const auto* sobj = static_cast<const rel::SObject*>(
        sprocs_[sp.partition]->ReadFor(&payer,
                                       workload_->s_segs[sp.partition],
                                       rel::Workload::SOffset(sp.index),
                                       sizeof(rel::SObject)));
    out_digest_[i] += rel::OutputDigest(req.r_id, sobj->key);
    ++out_count_[i];
  }
  queue.erase(queue.begin(), queue.begin() + static_cast<ptrdiff_t>(n));
  if (obs::TraceRecorder* trace = env_->trace()) {
    trace->Complete(payer.trace_pid(), payer.trace_tid(), "gbuffer-fetch",
                    "gbuffer", batch_start_ms,
                    payer.clock_ms() - batch_start_ms,
                    {obs::Arg("batch", n)});
  }
}

void JoinExecution::RequestS(uint32_t i, uint64_t r_id,
                             uint64_t packed_sptr) {
  pending_[i].push_back(PendingS{r_id, packed_sptr});
  const uint64_t batch = gbufs_[i]->Add(rprocs_[i].get());
  if (batch > 0) ServiceSBatch(i, batch);
}

void JoinExecution::FlushSRequests(uint32_t i) {
  const uint64_t batch = gbufs_[i]->Flush(rprocs_[i].get());
  if (batch > 0) ServiceSBatch(i, batch);
  assert(pending_[i].empty());
}

void JoinExecution::ProbeRun(uint32_t i, sim::SegId seg, uint64_t offset,
                             uint64_t n) {
  for (uint64_t k = 0; k < n; ++k) {
    Tuple obj;
    std::memcpy(&obj, Read(i, seg, offset + k * sizeof(obj), sizeof(obj)),
                sizeof(obj));
    RequestS(i, obj.id, obj.sptr);
  }
}

void JoinExecution::SortRefs(uint32_t i, exec::SRef* refs, uint64_t n,
                             exec::SortKey key) {
  std::vector<uint64_t> idx(n);
  std::iota(idx.begin(), idx.end(), uint64_t{0});
  const bool by_rid = key == exec::SortKey::kSptrThenRid;
  HeapCost cost;
  HeapSort(
      &idx,
      [refs, by_rid](uint64_t a, uint64_t b) {
        if (!by_rid || refs[a].sptr != refs[b].sptr) {
          return refs[a].sptr < refs[b].sptr;
        }
        return refs[a].r_id < refs[b].r_id;
      },
      &cost);
  ChargeCpu(i, mc().HeapCostMs(cost));
  std::vector<exec::SRef> sorted(n);
  for (uint64_t k = 0; k < n; ++k) sorted[k] = refs[idx[k]];
  std::copy(sorted.begin(), sorted.end(), refs);
}

void JoinExecution::MarkPass(const std::string& label) {
  double max_ms = 0;
  uint64_t faults = 0;
  obs::TraceRecorder* trace = env_->trace();
  for (uint32_t i = 0; i < d_; ++i) {
    const double clock = rprocs_[i]->clock_ms();
    max_ms = std::max(max_ms, clock);
    faults += rprocs_[i]->stats().faults + sprocs_[i]->stats().faults;
    if (trace) {
      // One top-level span per Rproc covering its share of this pass; the
      // pass boundary per process is its own clock, not the global max.
      trace->Complete(rprocs_[i]->trace_pid(), rprocs_[i]->trace_tid(),
                      label, "pass", last_mark_clock_[i],
                      clock - last_mark_clock_[i]);
    }
    last_mark_clock_[i] = clock;
  }
  passes_.push_back(PassMark{label, max_ms - last_mark_ms_,
                             faults - last_mark_faults_});
  last_mark_ms_ = max_ms;
  last_mark_faults_ = faults;
}

void JoinExecution::SyncClocks() {
  double max_ms = 0;
  for (auto& p : rprocs_) max_ms = std::max(max_ms, p->clock_ms());
  for (auto& p : rprocs_) p->set_clock_ms(max_ms);
}

void JoinExecution::ChargeSetupAll(double per_proc_ms) {
  const double serial_ms = per_proc_ms * static_cast<double>(d_);
  setup_ms_ += serial_ms;
  for (auto& p : rprocs_) p->ChargeSetup(serial_ms);
}

JoinRunResult JoinExecution::Finish() {
  JoinRunResult r;
  r.rproc_ms.resize(d_);
  r.rproc_stats.resize(d_);
  for (uint32_t i = 0; i < d_; ++i) {
    r.rproc_ms[i] = rprocs_[i]->clock_ms();
    r.rproc_stats[i] = rprocs_[i]->stats();
    r.elapsed_ms = std::max(r.elapsed_ms, r.rproc_ms[i]);
    r.output_count += out_count_[i];
    r.output_checksum += out_digest_[i];
    r.faults += rprocs_[i]->stats().faults + sprocs_[i]->stats().faults;
    r.write_backs +=
        rprocs_[i]->stats().write_backs + sprocs_[i]->stats().write_backs;
  }
  r.setup_ms = setup_ms_;
  r.passes = passes_;
  r.threads_used = d_;  // one virtual process per partition
  r.verified = r.output_count == workload_->expected_output_count &&
               r.output_checksum == workload_->expected_checksum;
  return r;
}

void JoinRunResult::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->counter("join.runs").Inc();
  registry->counter("join.faults").Inc(faults);
  registry->counter("join.write_backs").Inc(write_backs);
  registry->counter("join.output_objects").Inc(output_count);
  if (!verified) registry->counter("join.unverified_runs").Inc();
  registry->histogram("join.elapsed_ms").Record(elapsed_ms);
  registry->histogram("join.setup_ms").Record(setup_ms);
  for (const auto& stats : rproc_stats) {
    stats.ExportMetrics(registry, "rproc");
  }
  for (const auto& pass : passes) {
    registry->histogram("pass." + pass.label + ".ms").Record(pass.elapsed_ms);
    registry->counter("pass." + pass.label + ".faults").Inc(pass.faults);
  }
  if (sched_morsels > 0) {
    // Real-backend stealing schedule only; absent from simulated dumps.
    registry->counter("join.sched.morsels").Inc(sched_morsels);
    registry->counter("join.sched.steals").Inc(sched_steals);
    registry->counter("join.sched.steal_failures").Inc(sched_steal_failures);
    registry->histogram("join.sched.idle_ms").Record(sched_idle_ms);
  }
  if (kernel_batches > 0) {
    // Real-backend batched kernels only; absent from simulated dumps.
    registry->counter("join.kernel.batches").Inc(kernel_batches);
    registry->counter("join.kernel.requests").Inc(kernel_requests);
    registry->counter("join.kernel.prefetches").Inc(kernel_prefetches);
  }
  if (paging_advise_calls > 0) {
    // Real-backend paging policy only; absent under paging=none.
    registry->counter("join.paging.advise_calls").Inc(paging_advise_calls);
    registry->counter("join.paging.advise_bytes").Inc(paging_advise_bytes);
    registry->counter("join.paging.advise_errors").Inc(paging_advise_errors);
  }
  if (k_buckets > 0) {
    // Bucketed drivers only: 1 when the join read R to count its bucket
    // populations, 0 when the workload's memo served them.
    registry->counter("join.histogram_scans").Inc(histogram_scans);
  }
  if (index_entries > 0) {
    // Index nested-loops driver only; absent from the partitioning
    // drivers' dumps.
    registry->counter("join.index.entries").Inc(index_entries);
    registry->counter("join.index.probes").Inc(index_probes);
    registry->counter("join.index.matches").Inc(index_matches);
    registry->counter("join.index.levels").Inc(index_levels);
  }
  if (numa_nodes > 0) {
    // Real-backend NUMA placement only; absent under numa=none. On a
    // single-node host only join.numa.nodes (= 1) appears.
    registry->counter("join.numa.nodes").Inc(numa_nodes);
    registry->counter("join.numa.mbind_calls").Inc(numa_mbind_calls);
    registry->counter("join.numa.mbind_errors").Inc(numa_mbind_errors);
    registry->counter("join.numa.first_touch_pages")
        .Inc(numa_first_touch_pages);
  }
  if (model_predicted_ms > 0) {
    // Adaptive-planner runs only (mm::MmJoin); absent when no prediction
    // was made. error_pct is recorded as magnitude — the histogram's
    // min/mean/max summarize how far off the model runs, either way.
    registry->histogram("join.model.predicted_ms").Record(model_predicted_ms);
    registry->histogram("join.model.actual_ms").Record(elapsed_ms);
    registry->histogram("join.model.error_pct")
        .Record(std::abs(model_error_pct));
    if (planner_auto) registry->counter("join.planner.auto").Inc();
  }
}

}  // namespace mmjoin::join
