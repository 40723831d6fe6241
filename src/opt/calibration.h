// Machine calibration for the adaptive planner: measured wall-clock
// primitives (model::MachineProfile) plus the per-driver EWMA correction
// state that closes the predicted-vs-actual loop, with a strict-JSON
// round-trip (`calibration.json`) so the profile is measured once per
// store and reused across processes.
//
// Three ways to obtain one:
//   - MeasureCalibration(): sub-second micro-probes on the running host
//     (the same probes `micro_primitives --calibration=PATH` runs);
//   - Calibration::HostDefaults(): conservative constants for an
//     unmeasured host;
//   - Calibration::ColdStoreReference(): a pinned reference machine with
//     1996-shaped economics (expensive random access, costly faults) used
//     by the golden planner-decision tests — fixed constants, never
//     measured, so the goldens are deterministic on any CI host.
#ifndef MMJOIN_OPT_CALIBRATION_H_
#define MMJOIN_OPT_CALIBRATION_H_

#include <array>
#include <cstdint>
#include <string>

#include "join/join_common.h"
#include "model/wall_model.h"
#include "util/status.h"

namespace mmjoin::opt {

using join::kNumAlgorithms;

/// Working-set bands the corrections are learned in. A driver's model
/// residual is regime-dependent — at cache scale the fixed per-pass
/// overheads dominate the miss, at memory scale the bandwidth terms do —
/// so one global factor oscillates between regimes and flips close calls
/// the raw ranking got right. Band 0: |R|+|S| bytes fit the last-level
/// cache; band 1: everything larger.
inline constexpr uint32_t kNumBands = 2;

/// Geometric-EWMA smoothing weight for Observe(): each observation pulls
/// the correction 30% of the way (in log space) toward actual/predicted.
inline constexpr double kEwmaAlpha = 0.3;

/// A machine profile plus the learned per-driver correction factors.
struct Calibration {
  model::MachineProfile machine;
  /// Multiplier applied to a driver's predicted wall time (the planner
  /// ranks corrected predictions), one per working-set band. Learned:
  /// geometric EWMA of observed actual/predicted ratios, clamped to
  /// [0.1, 10] per observation.
  std::array<std::array<double, kNumBands>, kNumAlgorithms> correction =
      [] {
        std::array<std::array<double, kNumBands>, kNumAlgorithms> neutral;
        for (auto& bands : neutral) bands.fill(1.0);
        return neutral;
      }();
  /// Observations folded into each correction cell (telemetry).
  uint64_t observations[kNumAlgorithms][kNumBands] = {};

  /// Which correction band a join with |R|+|S| = `workset_bytes` lands in.
  uint32_t BandFor(double workset_bytes) const {
    return workset_bytes <= static_cast<double>(machine.llc_bytes) ? 0 : 1;
  }
  double CorrectionFor(join::Algorithm a, double workset_bytes) const {
    return correction[static_cast<uint32_t>(a)][BandFor(workset_bytes)];
  }
  /// Folds one predicted-vs-actual pair into the driver's correction for
  /// the join's working-set band. `predicted_ms` is the corrected
  /// prediction the planner reported (PlannerDecision::predicted_ms) —
  /// the update multiplies the correction by (actual/predicted)^alpha, so
  /// corrected predictions converge on actuals. Non-positive predicted or
  /// actual values are ignored.
  void Observe(join::Algorithm a, double workset_bytes, double predicted_ms,
               double actual_ms);

  static Calibration HostDefaults();
  static Calibration ColdStoreReference();
};

/// Options for the measurement probes. The defaults finish well under a
/// second; the sizes only need to straddle the cache hierarchy.
struct MeasureOptions {
  uint64_t max_band_bytes = 64ull << 20;  ///< largest random-access band
  uint32_t repetitions = 3;               ///< min-of-N per probe
};

/// Times the primitive operations on the running host: sequential scan,
/// random 128-byte dereferences over several band sizes, scatter copy,
/// 128-byte-object heapsort, chained hash build/probe, B+-tree-style
/// binary-search probes, and anonymous-page first-touch faults. NUMA
/// remote factors are left at the single-node defaults unless the host
/// exposes more than one node (then a conservative fixed penalty is
/// recorded — cross-node timing needs both nodes under load to measure
/// honestly, which a sub-second probe cannot do).
Calibration MeasureCalibration(const MeasureOptions& options = {});

/// Serializes to the strict obs JSON schema (see docs/PARAMETERS.md):
/// {"calibration":{"version":1,"machine":{...},"correction":[...]}} where
/// each correction entry is {"algorithm":NAME,"ewma":[...],"runs":[...]}
/// with one array element per working-set band.
std::string CalibrationToJson(const Calibration& calibration);

/// Parses what CalibrationToJson writes. Unknown keys are errors (the
/// schema is versioned); a version other than 1 is an error.
StatusOr<Calibration> CalibrationFromJson(const std::string& json);

/// File round-trip. Save writes atomically (temp file + rename) so a
/// concurrent reader never sees a torn calibration.
Status SaveCalibration(const Calibration& calibration,
                       const std::string& path);
StatusOr<Calibration> LoadCalibration(const std::string& path);

}  // namespace mmjoin::opt

#endif  // MMJOIN_OPT_CALIBRATION_H_
