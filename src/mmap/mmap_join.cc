#include "mmap/mmap_join.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "exec/join_drivers.h"
#include "exec/real_backend.h"
#include "exec/scheduler.h"
#include "join/drivers.h"
#include "mmap/btree.h"
#include "opt/adaptive.h"

namespace mmjoin::mm {

namespace {

join::JoinParams ToJoinParams(const MmJoinOptions& options) {
  join::JoinParams params;
  if (options.m_rproc_bytes) {
    params.m_rproc_bytes = options.m_rproc_bytes;
    params.m_sproc_bytes = options.m_rproc_bytes;
  }
  params.k_buckets = options.k_buckets;
  params.tsize = options.tsize;
  return params;
}

exec::RealBackendOptions ToBackendOptions(const MmJoinOptions& options) {
  exec::RealBackendOptions bo;
  bo.max_threads = options.max_threads;
  bo.morsel_tuples = options.morsel_tuples;
  bo.skew_split_factor = options.skew_split_factor;
  bo.prefetch_distance = options.prefetch_distance;
  bo.paging = options.paging;
  bo.huge_pages = options.huge_pages;
  bo.numa = options.numa;
  bo.trace = options.trace;
  bo.pool = options.pool;
  bo.priority = options.priority;
  return bo;
}

MmJoinResult ToResult(join::JoinRunResult run) {
  MmJoinResult r;
  r.wall_ms = run.elapsed_ms;
  r.output_count = run.output_count;
  r.output_checksum = run.output_checksum;
  r.verified = run.verified;
  r.threads_used = run.threads_used;
  r.run = std::move(run);
  return r;
}

template <StatusOr<join::JoinRunResult> (*Driver)(exec::RealBackend&,
                                                  const join::JoinParams&)>
StatusOr<MmJoinResult> Run(join::Algorithm algorithm,
                           const MmWorkload& workload,
                           const MmJoinOptions& options) {
  const uint32_t d = workload.config.num_partitions;
  if (workload.r_segs.size() != d || workload.s_segs.size() != d) {
    return Status::InvalidArgument("bad workload");
  }
  const join::JoinParams params = ToJoinParams(options);
  exec::RealBackend backend(workload, params, ToBackendOptions(options));
  MMJOIN_ASSIGN_OR_RETURN(join::JoinRunResult run, Driver(backend, params));
  MmJoinResult result = ToResult(std::move(run));
  result.algorithm = algorithm;
  result.paging_status = backend.DeferredError();
  result.numa_status = backend.NumaDeferredError();
  return result;
}

/// Planner inputs from what the workload already knows: counts for the
/// skew estimate, mincore for residency — no tuple data is touched.
opt::PlannerInputs ToPlannerInputs(const MmWorkload& workload,
                                   const MmJoinOptions& options) {
  opt::PlannerInputs in;
  in.r_objects = workload.config.r_objects;
  in.s_objects = workload.config.s_objects;
  in.partitions = workload.config.num_partitions;
  const uint32_t d = workload.config.num_partitions;
  // Hot-partition stretch: max S-target tuple share over the uniform 1/D.
  uint64_t hottest = 0;
  for (uint32_t j = 0; j < d; ++j) {
    uint64_t t = 0;
    for (uint32_t i = 0; i < d && i < workload.counts.size(); ++i) {
      if (j < workload.counts[i].size()) t += workload.counts[i][j];
    }
    hottest = std::max(hottest, t);
  }
  if (workload.config.r_objects > 0 && d > 0) {
    in.skew = static_cast<double>(hottest) * d /
              static_cast<double>(workload.config.r_objects);
  }
  in.m_rproc_bytes = options.m_rproc_bytes;
  // Residency of the mapped inputs, page-sampled via mincore.
  double resident_pages = 0, total_pages = 0;
  for (uint32_t i = 0; i < d; ++i) {
    for (const Segment* seg : {&workload.r_segs[i], &workload.s_segs[i]}) {
      const double pages =
          static_cast<double>((seg->size() + 4095) / 4096);
      resident_pages += ResidentFraction(seg->base(), seg->size()) * pages;
      total_pages += pages;
    }
  }
  in.residency = total_pages > 0 ? resident_pages / total_pages : 1.0;
  in.workers = options.pool != nullptr
                   ? options.pool->workers()
                   : exec::EffectiveWorkers(d, options.max_threads);
  in.warm_index = false;  // MmJoin has no store handle to attach a tree
  return in;
}

}  // namespace

StatusOr<MmJoinResult> MmJoin(const MmWorkload& workload,
                              const MmJoinOptions& options) {
  if (options.algorithm) {
    return join::Driver(*options.algorithm).real(workload, options);
  }

  opt::AdaptiveController* controller =
      options.planner ? options.planner : &opt::ProcessController();
  const opt::PlannerDecision decision =
      controller->Plan(ToPlannerInputs(workload, options));

  // The planner's knob vector replaces the performance knobs; scheduling
  // identity (pool, priority, trace, threads) and NUMA placement, which
  // this host cannot measure, stay the caller's.
  MmJoinOptions resolved = options;
  resolved.prefetch_distance = decision.prefetch_distance;
  resolved.paging = decision.paging;
  resolved.k_buckets = decision.k_buckets;
  resolved.tsize = decision.tsize;

  MMJOIN_ASSIGN_OR_RETURN(
      MmJoinResult result,
      join::Driver(decision.algorithm).real(workload, resolved));
  result.auto_selected = true;
  result.planner_note = decision.explanation;
  result.run.planner_auto = true;
  result.run.model_predicted_ms = decision.predicted_ms;
  if (decision.predicted_ms > 0) {
    result.run.model_error_pct = 100.0 *
                                 (result.wall_ms - decision.predicted_ms) /
                                 decision.predicted_ms;
  }
  controller->Observe(decision.algorithm, decision.workset_bytes,
                      decision.predicted_ms, result.wall_ms);
  return result;
}

StatusOr<MmJoinResult> MmNestedLoops(const MmWorkload& workload,
                                     const MmJoinOptions& options) {
  return Run<&exec::NestedLoops<exec::RealBackend>>(
      join::Algorithm::kNestedLoops, workload, options);
}

StatusOr<MmJoinResult> MmSortMerge(const MmWorkload& workload,
                                   const MmJoinOptions& options) {
  return Run<&exec::SortMerge<exec::RealBackend>>(
      join::Algorithm::kSortMerge, workload, options);
}

StatusOr<MmJoinResult> MmMpsm(const MmWorkload& workload,
                              const MmJoinOptions& options) {
  return Run<&exec::Mpsm<exec::RealBackend>>(
      join::Algorithm::kMpsm, workload, options);
}

StatusOr<MmJoinResult> MmGrace(const MmWorkload& workload,
                               const MmJoinOptions& options) {
  return Run<&exec::Grace<exec::RealBackend>>(
      join::Algorithm::kGrace, workload, options);
}

StatusOr<MmJoinResult> MmHybridHash(const MmWorkload& workload,
                                    const MmJoinOptions& options) {
  return Run<&exec::HybridHash<exec::RealBackend>>(
      join::Algorithm::kHybridHash, workload, options);
}

StatusOr<MmJoinResult> MmIndexNestedLoops(const MmWorkload& workload,
                                          const MmJoinOptions& options) {
  return Run<&exec::IndexNestedLoops<exec::RealBackend>>(
      join::Algorithm::kIndexNestedLoops, workload, options);
}

StatusOr<MmJoinResult> MmIndexProbe(SegmentManager* manager,
                                    const std::string& prefix,
                                    const MmWorkload& workload,
                                    const MmJoinOptions& options) {
  if (manager == nullptr) {
    return Status::InvalidArgument("null segment manager");
  }
  auto minflt = [] {
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_minflt);
  };
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t faults0 = minflt();
  MmJoinResult out;

  // Setup: attach the sealed tree. OpenSealedSegment re-verifies the
  // header and payload checksums, so a torn index refuses right here.
  MMJOIN_ASSIGN_OR_RETURN(Segment ix_seg,
                          OpenMmWorkloadIndexSegment(manager, prefix));
  MMJOIN_ASSIGN_OR_RETURN(BTree tree, BTree::Attach(&ix_seg));
  // Paging hints on the file-backed index follow the PR 4 contract:
  // counted, surfaced, never fatal.
  {
    const Status st = ix_seg.Advise(AccessIntent::kWillNeed);
    if (!st.ok()) {
      ++out.run.paging_advise_errors;
      if (out.paging_status.ok()) out.paging_status = st;
    }
  }
  const uint32_t d = workload.config.num_partitions;
  auto mark = [&](const char* label, uint64_t* faults_at) {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    double prior = 0;
    for (const auto& p : out.run.passes) prior += p.elapsed_ms;
    const uint64_t f = minflt();
    out.run.passes.push_back(
        join::PassMark{label, ms - prior, f - *faults_at});
    *faults_at = f;
  };
  uint64_t faults_at = faults0;
  mark("setup", &faults_at);

  // S is stored in join-key order and the tree is keyed by packed
  // S-pointers, so partition i's matches are exactly the entries in
  // [SPtr{i,0}, SPtr{i,last}], visited in S order: one leaf-chain merge
  // per partition instead of a root-to-leaf descent per S tuple. The
  // postings run of each entry replays the join output.
  const uint32_t workers = exec::EffectiveWorkers(d, options.max_threads);
  std::vector<uint64_t> part_count(d, 0), part_checksum(d, 0),
      part_matches(d, 0);
  exec::ParallelFor(d, workers, [&](uint32_t i) {
    const uint64_t n = workload.s_count[i];
    if (n == 0) return;
    const rel::SObject* s = workload.SObjects(i);
    uint64_t count = 0, checksum = 0;
    part_matches[i] = tree.Scan(
        rel::SPtr{i, 0}.Pack(), rel::SPtr{i, n - 1}.Pack(),
        [&](uint64_t key, uint64_t value) {
          const uint64_t s_key = s[rel::SPtr::Unpack(key).index].key;
          const auto* post =
              static_cast<const uint64_t*>(ix_seg.Resolve(value));
          for (uint64_t p = 1; p <= post[0]; ++p) {
            checksum += rel::OutputDigest(post[p], s_key);
          }
          count += post[0];
        });
    part_count[i] = count;
    part_checksum[i] = checksum;
  });
  uint64_t count = 0, checksum = 0, probes = 0, matches = 0;
  for (uint32_t i = 0; i < d; ++i) {
    count += part_count[i];
    checksum += part_checksum[i];
    matches += part_matches[i];
    probes += workload.s_count[i];
  }
  mark("index-probe", &faults_at);

  out.run.output_count = out.output_count = count;
  out.run.output_checksum = out.output_checksum = checksum;
  out.run.verified = out.verified =
      count == workload.expected_output_count &&
      checksum == workload.expected_checksum;
  out.run.threads_used = out.threads_used = workers;
  out.run.index_entries = tree.size();
  out.run.index_probes = probes;
  out.run.index_matches = matches;
  out.run.index_levels = tree.height();
  out.run.faults = minflt() - faults0;
  out.wall_ms = out.run.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

void MmPlanResult::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->counter("plan.runs").Inc();
  registry->counter("plan.rows_scanned").Inc(plan.rows_scanned);
  registry->counter("plan.rows_filtered").Inc(plan.rows_filtered);
  registry->counter("plan.rows_joined").Inc(plan.rows_joined);
  registry->counter("plan.output_rows").Inc(plan.output_rows);
  registry->counter("plan.groups").Inc(plan.groups.size());
  if (!verified) registry->counter("plan.unverified_runs").Inc();
  registry->histogram("plan.elapsed_ms").Record(plan.elapsed_ms);
}

StatusOr<MmPlanResult> MmRunPlan(const MmWorkload& workload,
                                 const exec::op::PlanSpec& spec,
                                 const MmJoinOptions& options) {
  const uint32_t d = workload.config.num_partitions;
  if (workload.r_segs.size() != d || workload.s_segs.size() != d) {
    return Status::InvalidArgument("bad workload");
  }
  const join::JoinParams params = ToJoinParams(options);
  exec::RealBackend backend(workload, params, ToBackendOptions(options));
  MMJOIN_ASSIGN_OR_RETURN(exec::op::PlanRunResult run,
                          exec::op::RunPlan(backend, spec));

  // Oracle check: the serial reference evaluation over the same mapped
  // objects must agree on every row count, group, and the checksum.
  exec::op::RelationView view;
  for (uint32_t i = 0; i < d; ++i) {
    view.r.push_back(workload.RObjects(i));
    view.r_count.push_back(workload.r_count[i]);
    view.s.push_back(workload.SObjects(i));
    view.s_count.push_back(workload.s_count[i]);
  }
  MMJOIN_ASSIGN_OR_RETURN(exec::op::PlanRunResult ref,
                          exec::op::ReferencePlan(view, spec));

  MmPlanResult result;
  result.verified = exec::op::PlanResultsMatch(run, ref);
  result.plan = std::move(run);
  result.paging_status = backend.DeferredError();
  return result;
}

}  // namespace mmjoin::mm
