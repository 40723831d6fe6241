#include "service/query.h"

#include <cstdio>
#include <utility>

#include "mmap/mmap_join.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/adaptive.h"

namespace mmjoin::svc {

Status QueryEngine::Run(const Request& req, uint64_t query_id,
                        QueryOutcome* outcome) {
  *outcome = QueryOutcome{};
  // Pin before admission: the byte estimate comes from the catalog entry,
  // and holding the pin through the queue wait keeps an unregister from
  // yanking the segments between admission and execution.
  MMJOIN_ASSIGN_OR_RETURN(RelationCatalog::Pin pin,
                          catalog_->Acquire(req.name));
  auto admitted = admission_->Admit(pin.entry().query_bytes_estimate,
                                    &outcome->queue_ms,
                                    &outcome->retry_after_ms);
  if (!admitted.ok()) return admitted.status();

  obs::TraceRecorder trace;
  mm::MmJoinOptions options;
  if (!req.algorithm_auto) options.algorithm = req.algorithm;
  options.planner = planner_;
  options.pool = pool_;
  options.priority = req.priority;
  if (req.trace && !artifacts_dir_.empty()) options.trace = &trace;

  auto result = mm::MmJoin(pin.entry().workload, options);
  if (!result.ok()) return result.status();

  outcome->count = result->output_count;
  outcome->checksum = result->output_checksum;
  outcome->verified = result->verified;
  outcome->exec_ms = result->wall_ms;
  outcome->threads = result->threads_used;
  outcome->algorithm = result->algorithm;
  outcome->planner_auto = result->auto_selected;
  outcome->model_error_pct = result->run.model_error_pct;
  admission_->RecordExecMs(result->wall_ms);

  if (!artifacts_dir_.empty()) {
    // Per-query artifacts are best-effort observability: a full disk must
    // not fail a join that already produced its answer.
    const std::string base =
        artifacts_dir_ + "/query-" + std::to_string(query_id);
    obs::MetricsRegistry registry;
    result->ExportMetrics(&registry);
    registry.counter("svc.query.id").Inc(query_id);
    registry.histogram("svc.queue_ms").Record(outcome->queue_ms);
    const Status ms = registry.WriteFile(base + ".metrics.json");
    if (!ms.ok()) {
      std::fprintf(stderr, "mmjoind: query %llu metrics: %s\n",
                   static_cast<unsigned long long>(query_id),
                   ms.ToString().c_str());
    }
    if (options.trace != nullptr) {
      const Status ts = trace.WriteFile(base + ".trace.json");
      if (!ts.ok()) {
        std::fprintf(stderr, "mmjoind: query %llu trace: %s\n",
                     static_cast<unsigned long long>(query_id),
                     ts.ToString().c_str());
      }
    }
  }
  return Status::OK();
}

Status QueryEngine::RunPlan(const Request& req, uint64_t query_id,
                            QueryOutcome* outcome) {
  *outcome = QueryOutcome{};
  const exec::op::PlanSpec* spec = exec::op::FindPlan(req.plan);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown plan \"" + req.plan + "\"");
  }
  MMJOIN_ASSIGN_OR_RETURN(RelationCatalog::Pin pin,
                          catalog_->Acquire(req.name));
  auto admitted = admission_->Admit(pin.entry().query_bytes_estimate,
                                    &outcome->queue_ms,
                                    &outcome->retry_after_ms);
  if (!admitted.ok()) return admitted.status();

  obs::TraceRecorder trace;
  mm::MmJoinOptions options;
  options.pool = pool_;
  options.priority = req.priority;
  if (req.trace && !artifacts_dir_.empty()) options.trace = &trace;

  auto result = mm::MmRunPlan(pin.entry().workload, *spec, options);
  if (!result.ok()) return result.status();

  outcome->count = result->plan.output_rows;
  outcome->checksum = result->plan.checksum;
  outcome->verified = result->verified;
  outcome->exec_ms = result->plan.elapsed_ms;
  outcome->threads = result->plan.threads_used;
  outcome->rows_scanned = result->plan.rows_scanned;
  outcome->rows_filtered = result->plan.rows_filtered;
  outcome->rows_joined = result->plan.rows_joined;
  for (const auto& g : result->plan.groups) {
    outcome->groups.push_back(PlanGroupEntry{g.key, g.aggs});
  }
  admission_->RecordExecMs(result->plan.elapsed_ms);

  if (!artifacts_dir_.empty()) {
    const std::string base =
        artifacts_dir_ + "/query-" + std::to_string(query_id);
    obs::MetricsRegistry registry;
    result->ExportMetrics(&registry);
    registry.counter("svc.query.id").Inc(query_id);
    registry.histogram("svc.queue_ms").Record(outcome->queue_ms);
    const Status ms = registry.WriteFile(base + ".metrics.json");
    if (!ms.ok()) {
      std::fprintf(stderr, "mmjoind: plan %llu metrics: %s\n",
                   static_cast<unsigned long long>(query_id),
                   ms.ToString().c_str());
    }
    if (options.trace != nullptr) {
      const Status ts = trace.WriteFile(base + ".trace.json");
      if (!ts.ok()) {
        std::fprintf(stderr, "mmjoind: plan %llu trace: %s\n",
                     static_cast<unsigned long long>(query_id),
                     ts.ToString().c_str());
      }
    }
  }
  return Status::OK();
}

}  // namespace mmjoin::svc
