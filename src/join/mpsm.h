// NUMA-affine massively-parallel sort-merge join (EXT-9, after
// Albutiu/Kemper/Neumann's MPSM).
//
// Pass 0 range-partitions R by packed S-pointer into one band per NUMA
// node; pass 1 sorts each band's IRUN runs strictly node-locally;
// pass 2 binary-searches each S partition's key range out of every
// node's runs and merge-joins the slices against one sequential sweep of
// S_i — remote bands are only ever scanned sequentially. Because the
// join attribute is a virtual pointer, S never sorts at all; the
// simulator runs the identical driver with a degenerate single band
// (its NumaNodeCount() is 1), which is also the real backend's
// single-node fallback shape.
#ifndef MMJOIN_JOIN_MPSM_H_
#define MMJOIN_JOIN_MPSM_H_

#include "join/join_common.h"

namespace mmjoin::join {

/// Runs the NUMA-affine MPSM join on `workload` (simulated backend).
StatusOr<JoinRunResult> RunMpsm(sim::SimEnv* env,
                                const rel::Workload& workload,
                                const JoinParams& params);

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_MPSM_H_
