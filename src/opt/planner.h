// The adaptive planner: given relation statistics, a memory budget and a
// machine calibration, rank the six drivers by corrected wall-clock cost
// (model::PredictWall x the calibration's learned per-driver EWMA factor)
// and derive the knob vector the winner should run with — Grace /
// hybrid K and TSIZE, the sort-merge run shape, and the paging execution
// knob. NUMA placement is not derived: it cannot be
// measured on a single-node host, so it stays the caller's choice.
//
// The planner is pure and deterministic: same inputs + same calibration =>
// same decision, which is what the golden-decision tests pin. Learning
// happens outside it, in the Calibration the caller feeds back through
// Observe() (see AdaptiveController in opt/adaptive.h for the shared,
// persistent form the service uses).
//
// Layering: opt/ sits above join/, model/ and exec/ and below mmap/ —
// mmap_join resolves an unset MmJoinOptions::algorithm through this
// header, so nothing here may include mmap/ (nor join/drivers.h, which
// names the mmap entry points).
#ifndef MMJOIN_OPT_PLANNER_H_
#define MMJOIN_OPT_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/kernels.h"
#include "join/join_common.h"
#include "model/join_model.h"
#include "model/wall_model.h"
#include "opt/calibration.h"

namespace mmjoin::opt {

/// Workload statistics the planner decides from. Everything is derivable
/// from an MmWorkload / service request without touching tuple data; the
/// mmap layer fills them in when resolving algorithm=auto.
struct PlannerInputs {
  uint64_t r_objects = 0;
  uint64_t s_objects = 0;
  uint32_t partitions = 1;
  /// Hot-partition stretch (max S-target share over the uniform share);
  /// 1.0 = uniform. MmJoin computes it from the workload's counts matrix.
  double skew = 1.0;
  /// M_Rproc plan-shaping budget; 0 = the JoinParams default (4 MiB).
  uint64_t m_rproc_bytes = 0;
  /// Resident fraction of the R/S segments (mincore probe); 1.0 = warm.
  double residency = 1.0;
  /// Effective worker threads the run will get; 0 = detect
  /// (hardware_concurrency capped by partitions).
  uint32_t workers = 0;
  /// Host NUMA nodes (shapes the cost model's remote-access terms);
  /// 0 = detect.
  uint32_t numa_nodes = 0;
};

/// One ranked candidate (all six appear in the decision, best first).
struct CandidateCost {
  join::Algorithm algorithm = join::Algorithm::kNestedLoops;
  double predicted_ms = 0;  ///< raw wall-model prediction
  double corrected_ms = 0;  ///< predicted * calibration correction
};

/// The planner's output: the chosen driver, the plan-shaping parameters,
/// and the execution-knob vector, plus the full ranking for reporting.
struct PlannerDecision {
  join::Algorithm algorithm = join::Algorithm::kNestedLoops;
  double predicted_ms = 0;  ///< corrected prediction for the pick
  /// |R|+|S| bytes — the correction band key. Callers pass it back to
  /// Observe() so the run's residual lands in the band that planned it.
  double workset_bytes = 0;
  /// Per-pass breakdown of the pick's raw prediction.
  model::WallCost cost;

  // Plan-shaping parameters (echoes of the derivations the drivers would
  // repeat; zero where the driver has no such knob).
  uint32_t k_buckets = 0;  ///< Grace/hybrid K
  uint32_t tsize = 0;      ///< Grace/hybrid chain count
  uint64_t irun = 0;       ///< sort-merge initial run length, objects

  // Execution knob.
  exec::PagingMode paging = exec::PagingMode::kAdvise;

  /// All six candidates, sorted best-first by corrected cost.
  std::vector<CandidateCost> candidates;
  /// One-line human summary ("picked grace: 12.3ms predicted, ...").
  std::string explanation;
};

/// Ranks the drivers and derives the knob vector. Pure and deterministic.
PlannerDecision PlanJoin(const PlannerInputs& inputs,
                         const Calibration& calibration);

/// Simulated-domain sibling: picks among the four drivers the paper
/// models (model::Predict) for the sim backend's algorithm=auto. The
/// index and MPSM extensions have no analytic counterpart there.
join::Algorithm PlanSimJoin(const model::ModelInputs& inputs);

}  // namespace mmjoin::opt

#endif  // MMJOIN_OPT_PLANNER_H_
