// Massively-parallel sort-merge join (EXT-9, after Albutiu, Kemper and
// Neumann's MPSM).
//
// Each partition sorts only its private input — 16-byte (id, sptr) refs
// of its R objects, in runs of M_Rproc / 16 refs — and then sweeps the
// public input S once per run in pointer order. Because the join
// attribute is a virtual pointer, S never sorts at all, and no global
// merge exists.
#ifndef MMJOIN_JOIN_MPSM_H_
#define MMJOIN_JOIN_MPSM_H_

#include "join/join_common.h"

namespace mmjoin::join {

/// Runs the MPSM join on `workload` (simulated backend).
StatusOr<JoinRunResult> RunMpsm(sim::SimEnv* env,
                                const rel::Workload& workload,
                                const JoinParams& params);

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_MPSM_H_
