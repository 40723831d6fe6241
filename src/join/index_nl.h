// Parallel index nested-loops join (EXT-8).
//
// Passes 0/1 repartition R exactly as Grace does (monotone coarse hash
// into K bucket sub-partitions of RS_i). Instead of per-bucket hash
// tables, pass 2 sorts each bucket of RS_i in place by (S-pointer, R id);
// the monotone hash makes their concatenation one globally sorted run, so
// RS_i itself is the index: a sorted leaf array with no key levels. The
// probe pass then sweeps the leaves forward and dereferences each
// referenced S object in pointer order: S objects with no referencing R
// are never read, which is what makes this the selective-join driver.
#ifndef MMJOIN_JOIN_INDEX_NL_H_
#define MMJOIN_JOIN_INDEX_NL_H_

#include "join/join_common.h"

namespace mmjoin::join {

/// Runs the parallel index nested-loops join on `workload`.
StatusOr<JoinRunResult> RunIndexNestedLoops(sim::SimEnv* env,
                                            const rel::Workload& workload,
                                            const JoinParams& params);

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_INDEX_NL_H_
