// Wall-clock-domain cost model for the REAL backend's six join drivers.
//
// The paper's analytical layer (join_model.h) predicts *simulated* 1996
// time: DTT curves, Mackert-Lohman buffer hits, the urn model. The real
// backend lives in a different domain — wall-clock nanoseconds on a warm
// memory hierarchy where "I/O" is a cache miss or a soft page fault — so
// the adaptive planner (src/opt/) needs cost entry points calibrated in
// that domain. This header provides them: a MachineProfile of measured
// per-primitive costs (sequential scan, random dereference as a function
// of band size — the same piecewise-linear interpolation idea as the
// paper's dttr, reused via DttCurve — scatter copy, sort, hash, B+-tree
// probe, soft-fault service) and PredictWall(), which prices each driver's
// actual pass structure against those primitives.
//
// The formulas mirror the drivers pass by pass (see DESIGN.md §7.8 for the
// derivation and provenance): they are intentionally first-order — the
// planner only needs the *ranking* and the knee points to be right, and
// systematic per-driver error is absorbed by the EWMA correction the
// calibration file carries (src/opt/calibration.h).
#ifndef MMJOIN_MODEL_WALL_MODEL_H_
#define MMJOIN_MODEL_WALL_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "join/join_common.h"
#include "model/dtt_curve.h"

namespace mmjoin::model {

/// Measured per-primitive costs of the host (or a reference machine).
/// Produced by opt::MeasureCalibration(), persisted in calibration.json.
/// The defaults describe a conservative contemporary core so an
/// uncalibrated planner still ranks sanely.
struct MachineProfile {
  /// Sequential scan, ns per byte (streaming reads through the cache).
  double seq_ns_per_byte = 0.10;
  /// Partition-scatter copy, ns per byte (write-combining staged copies).
  double scatter_ns_per_byte = 0.20;
  /// Random 128-byte dereference cost, ns per access, as a function of the
  /// band the accesses spread over — the wall-clock sibling of the paper's
  /// dttr(band) measurement. Interpolated piecewise-linearly (DttCurve with
  /// band_blocks carrying BYTES and ms_per_block carrying NANOSECONDS).
  std::vector<disk::BandPoint> rand_points;
  /// Heapsort cost, ns per element per log2 level.
  double sort_ns_per_cmp = 3.0;
  /// Chained hash table, ns per inserted / probed tuple.
  double hash_build_ns = 30.0;
  double hash_probe_ns = 30.0;
  /// B+-tree probe, ns per descended level (branch + binary search).
  double index_probe_ns_per_level = 25.0;
  /// Soft page-fault service, microseconds per 4 KiB page (minor fault:
  /// PTE fill from page cache / zero page).
  double fault_us_per_page = 0.5;
  /// Last-level cache estimate, bytes; the knee the knob heuristics use.
  uint64_t llc_bytes = 8ull << 20;
  /// Cross-node access penalty factors (>= 1; 1.0 on single-node hosts).
  /// Sequential remote streaming is mildly slower than local; random
  /// remote access and remote scatter stores pay more.
  double numa_remote_seq_factor = 1.0;
  double numa_remote_rand_factor = 1.0;
  double numa_remote_copy_factor = 1.0;

  /// ns per random 128-byte dereference spread over `band_bytes`.
  /// Clamps outside the measured range; falls back to a flat 120 ns when
  /// no points were measured.
  double RandDerefNs(double band_bytes) const;
};

/// Workload statistics the wall model prices a join over. Everything is
/// derivable from an MmWorkload / service request without touching data.
struct WallInputs {
  uint64_t r_objects = 0;
  uint64_t s_objects = 0;
  uint32_t partitions = 1;  ///< D
  /// Hot-partition stretch: (max over partitions of S-target tuples) over
  /// the uniform share. 1.0 = uniform; Zipf 1.1 at D=4 is ~2.5.
  double skew = 1.0;
  /// M_Rproc: private memory per partition used to shape plans (Grace K,
  /// sort-merge runs) — the same knob the drivers take.
  uint64_t m_rproc_bytes = 4ull << 20;
  /// Fraction of the R/S segments currently resident (mincore); cold
  /// fractions pay fault_us_per_page on first touch.
  double residency = 1.0;
  uint32_t workers = 1;     ///< effective worker threads
  uint32_t numa_nodes = 1;  ///< host nodes (shapes the remote factors)
};

/// One driver's predicted wall-clock cost, decomposed the way the drivers
/// mark passes so predicted-vs-actual can be compared per phase.
struct WallCost {
  double setup_ms = 0;      ///< mapping setup, plan derivation, thread spawn
  double partition_ms = 0;  ///< scatter/repartition passes (RP/RS writes)
  double build_ms = 0;      ///< sort runs / hash build / index build
  double probe_ms = 0;      ///< merge, probe and output passes
  double fault_ms = 0;      ///< first-touch faults on cold input + temporaries

  double total_ms() const {
    return setup_ms + partition_ms + build_ms + probe_ms + fault_ms;
  }
};

/// Prices `algorithm` on `machine` over `in`. Pure and deterministic.
WallCost PredictWall(join::Algorithm algorithm, const MachineProfile& machine,
                     const WallInputs& in);

}  // namespace mmjoin::model

#endif  // MMJOIN_MODEL_WALL_MODEL_H_
