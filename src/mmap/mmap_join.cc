#include "mmap/mmap_join.h"

#include <algorithm>
#include <utility>

#include "exec/join_drivers.h"
#include "exec/op/stages.h"
#include "exec/real_backend.h"
#include "exec/scheduler.h"
#include "join/drivers.h"
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
  bo.paging = options.paging;
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

/// Runs `driver(backend, params)` on a RealBackend over `workload`.
template <typename DriverFn>
StatusOr<MmJoinResult> Run(join::Algorithm algorithm,
                           const MmWorkload& workload,
                           const MmJoinOptions& options, DriverFn&& driver) {
  const uint32_t d = workload.config.num_partitions;
  if (workload.r_segs.size() != d || workload.s_segs.size() != d) {
    return Status::InvalidArgument("bad workload");
  }
  const join::JoinParams params = ToJoinParams(options);
  exec::RealBackend backend(workload, params, ToBackendOptions(options));
  MMJOIN_ASSIGN_OR_RETURN(join::JoinRunResult run, driver(backend, params));
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
  return Run(join::Algorithm::kNestedLoops, workload, options,
             exec::NestedLoops<exec::RealBackend>);
}

StatusOr<MmJoinResult> MmSortMerge(const MmWorkload& workload,
                                   const MmJoinOptions& options) {
  return Run(join::Algorithm::kSortMerge, workload, options,
             exec::SortMerge<exec::RealBackend>);
}

StatusOr<MmJoinResult> MmMpsm(const MmWorkload& workload,
                              const MmJoinOptions& options) {
  return Run(join::Algorithm::kMpsm, workload, options,
             exec::Mpsm<exec::RealBackend>);
}

StatusOr<MmJoinResult> MmGrace(const MmWorkload& workload,
                               const MmJoinOptions& options) {
  return Run(join::Algorithm::kGrace, workload, options,
             exec::Grace<exec::RealBackend>);
}

StatusOr<MmJoinResult> MmHybridHash(const MmWorkload& workload,
                                    const MmJoinOptions& options) {
  return Run(join::Algorithm::kHybridHash, workload, options,
             exec::HybridHash<exec::RealBackend>);
}

StatusOr<MmJoinResult> MmIndexNestedLoops(const MmWorkload& workload,
                                          const MmJoinOptions& options) {
  return Run(join::Algorithm::kIndexNestedLoops, workload, options,
             exec::IndexNestedLoops<exec::RealBackend>);
}

StatusOr<MmJoinResult> MmIndexProbe(SegmentManager* manager,
                                    const std::string& prefix,
                                    const MmWorkload& workload,
                                    const MmJoinOptions& options) {
  if (manager == nullptr) {
    return Status::InvalidArgument("null segment manager");
  }
  return Run(
      join::Algorithm::kIndexNestedLoops, workload, options,
      [&](exec::RealBackend& backend, const join::JoinParams& params)
          -> StatusOr<join::JoinRunResult> {
        // Setup: attach the sealed index (checksums verified, root checked
        // against the workload) and view each partition's bytes in place,
        // as the backend views R and S.
        MMJOIN_ASSIGN_OR_RETURN(MmWorkloadIndex index,
                                OpenMmWorkloadIndex(manager, prefix, workload));
        const uint32_t d = backend.D();
        std::vector<exec::RealSeg> views(d);
        std::vector<exec::RealSeg*> segs(d);
        for (uint32_t i = 0; i < d; ++i) {
          views[i].name = "IX" + std::to_string(i);
          views[i].base = const_cast<uint8_t*>(
              static_cast<const uint8_t*>(index.bytes[i]));
          views[i].bytes = index.entries[i] * sizeof(exec::SRef);
          segs[i] = &views[i];
        }
        backend.MarkPass("setup");

        const exec::op::IndexProbeCounts counts = exec::op::ProbeIndex(
            backend, segs, index.entries, params.phase_sync.value_or(true));
        backend.MarkPass("index-probe");
        join::JoinRunResult run = backend.Finish();
        counts.ExportTo(&run);
        return run;
      });
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
