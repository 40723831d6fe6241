// The one table of join drivers. Every place that enumerates the drivers,
// maps a driver name, or dispatches on a join::Algorithm reads kDrivers:
// the protocol codec, the planner's calibration file, the CLIs, the
// benches and the test matrices. Adding a driver is one template in
// exec/join_drivers.h, its two named entry points (join::RunX on the
// simulator, mm::MmX on the real backend) and one row here.
#ifndef MMJOIN_JOIN_DRIVERS_H_
#define MMJOIN_JOIN_DRIVERS_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "join/join_common.h"
#include "mmap/mmap_join.h"

namespace mmjoin::join {

/// One driver: its enum value, its wire/CLI/metrics name, and its entry
/// point on each backend.
struct DriverSpec {
  Algorithm algorithm;
  const char* name;
  StatusOr<JoinRunResult> (*sim)(sim::SimEnv*, const rel::Workload&,
                                 const JoinParams&);
  StatusOr<mm::MmJoinResult> (*real)(const mm::MmWorkload&,
                                     const mm::MmJoinOptions&);
};

/// Every driver, row i holding Algorithm value i (drivers.cc asserts it).
extern const DriverSpec kDrivers[kNumAlgorithms];

/// The paper's three drivers (sections 5, 6 and 7), in its order.
inline constexpr Algorithm kPaperDrivers[] = {
    Algorithm::kNestedLoops, Algorithm::kSortMerge, Algorithm::kGrace};

/// Every driver's name in table order, joined by `separator`.
std::string AlgorithmNames(std::string_view separator);

inline const DriverSpec& Driver(Algorithm a) {
  return kDrivers[static_cast<size_t>(a)];
}

/// Runs driver `a` on the simulator.
inline StatusOr<JoinRunResult> RunJoin(Algorithm a, sim::SimEnv* env,
                                       const rel::Workload& workload,
                                       const JoinParams& params) {
  return Driver(a).sim(env, workload, params);
}

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_DRIVERS_H_
