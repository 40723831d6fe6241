#include "opt/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "exec/numa.h"
#include "exec/scheduler.h"
#include "join/grace.h"
#include "join/sort_merge.h"
#include "rel/relation.h"

namespace mmjoin::opt {
namespace {

/// The ranking order ties break toward: fewer passes and less machinery
/// first. With exact cost ties (degenerate inputs) the simpler driver wins.
constexpr join::Algorithm kTieOrder[] = {
    join::Algorithm::kNestedLoops,   join::Algorithm::kHybridHash,
    join::Algorithm::kGrace,         join::Algorithm::kIndexNestedLoops,
    join::Algorithm::kSortMerge,     join::Algorithm::kMpsm,
};
// The planner ranks every driver: each one once.
static_assert(std::size(kTieOrder) == kNumAlgorithms && [] {
  bool seen[kNumAlgorithms] = {};
  for (join::Algorithm a : kTieOrder) {
    const auto i = static_cast<uint32_t>(a);
    if (i >= kNumAlgorithms || seen[i]) return false;
    seen[i] = true;
  }
  return true;
}());

model::WallInputs ToWallInputs(const PlannerInputs& in) {
  model::WallInputs w;
  w.r_objects = in.r_objects;
  w.s_objects = in.s_objects;
  w.partitions = std::max<uint32_t>(1, in.partitions);
  w.skew = std::max(1.0, in.skew);
  w.m_rproc_bytes = in.m_rproc_bytes ? in.m_rproc_bytes : (4ull << 20);
  w.residency = std::clamp(in.residency, 0.0, 1.0);
  w.workers = in.workers
                  ? in.workers
                  : exec::EffectiveWorkers(w.partitions, /*max_threads=*/0);
  w.numa_nodes = in.numa_nodes ? in.numa_nodes : exec::DetectNumaNodes();
  return w;
}

void DeriveKnobs(const model::WallInputs& w, const Calibration& cal,
                 PlannerDecision* d) {
  const double r_bytes =
      static_cast<double>(w.r_objects) * sizeof(rel::RObject);
  const double s_band =
      static_cast<double>(w.s_objects) * sizeof(rel::SObject) / w.partitions;
  const double llc = static_cast<double>(cal.machine.llc_bytes);

  // Plan-shaping echoes: the same derivations the drivers repeat, so the
  // decision can be reported (and overridden) without re-deriving.
  join::JoinParams p;
  p.m_rproc_bytes = w.m_rproc_bytes;
  p.m_sproc_bytes = w.m_rproc_bytes;
  const uint64_t rs_objects =
      std::max<uint64_t>(1, w.r_objects / w.partitions);
  if (d->algorithm == join::Algorithm::kGrace ||
      d->algorithm == join::Algorithm::kHybridHash) {
    const join::GracePlan gp = join::PlanGrace(p.m_rproc_bytes, rs_objects, p);
    d->k_buckets = gp.k_buckets;
    d->tsize = gp.tsize;
  }
  if (d->algorithm == join::Algorithm::kSortMerge ||
      d->algorithm == join::Algorithm::kMpsm) {
    d->irun = join::PlanSortMerge(p.m_rproc_bytes, 4096, rs_objects, p).irun;
  }

  // Paging: warm cache-resident runs don't need hints at all; everything
  // else keeps the default intent-driven madvise mapping.
  d->paging = w.residency >= 0.99 && r_bytes + s_band * w.partitions <= llc
                  ? exec::PagingMode::kNone
                  : exec::PagingMode::kAdvise;
}

}  // namespace

PlannerDecision PlanJoin(const PlannerInputs& inputs,
                         const Calibration& calibration) {
  const model::WallInputs w = ToWallInputs(inputs);
  PlannerDecision d;
  d.workset_bytes =
      static_cast<double>(inputs.r_objects) * sizeof(rel::RObject) +
      static_cast<double>(inputs.s_objects) * sizeof(rel::SObject);
  d.candidates.reserve(kNumAlgorithms);
  for (join::Algorithm a : kTieOrder) {
    CandidateCost cand;
    cand.algorithm = a;
    cand.predicted_ms = model::PredictWall(a, calibration.machine, w).total_ms();
    cand.corrected_ms =
        cand.predicted_ms * calibration.CorrectionFor(a, d.workset_bytes);
    d.candidates.push_back(cand);
  }
  // Stable sort over the tie order: an exact tie keeps the simpler driver.
  std::stable_sort(d.candidates.begin(), d.candidates.end(),
                   [](const CandidateCost& a, const CandidateCost& b) {
                     return a.corrected_ms < b.corrected_ms;
                   });
  d.algorithm = d.candidates.front().algorithm;
  d.predicted_ms = d.candidates.front().corrected_ms;
  d.cost = model::PredictWall(d.algorithm, calibration.machine, w);
  DeriveKnobs(w, calibration, &d);

  char line[256];
  std::snprintf(line, sizeof(line),
                "picked %s: %.3fms corrected (%.3fms raw), runner-up %s at "
                "%.3fms; workers=%u nodes=%u residency=%.2f",
                join::AlgorithmName(d.algorithm), d.predicted_ms,
                d.candidates.front().predicted_ms,
                d.candidates.size() > 1
                    ? join::AlgorithmName(d.candidates[1].algorithm)
                    : "none",
                d.candidates.size() > 1 ? d.candidates[1].corrected_ms : 0.0,
                w.workers, w.numa_nodes, w.residency);
  d.explanation = line;
  return d;
}

join::Algorithm PlanSimJoin(const model::ModelInputs& inputs) {
  // The paper models four drivers; rank those and only those.
  constexpr join::Algorithm kModeled[] = {
      join::Algorithm::kNestedLoops, join::Algorithm::kHybridHash,
      join::Algorithm::kGrace, join::Algorithm::kSortMerge};
  join::Algorithm best = kModeled[0];
  double best_ms = 0;
  bool first = true;
  for (join::Algorithm a : kModeled) {
    const double ms = model::Predict(a, inputs).total_ms();
    if (first || ms < best_ms) {
      best = a;
      best_ms = ms;
      first = false;
    }
  }
  return best;
}

}  // namespace mmjoin::opt
