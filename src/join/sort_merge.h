// Parallel pointer-based sort-merge join (section 6).
//
// Passes 0/1 partition R exactly as nested loops does, except that objects
// are *written out* to RS_i — the set of all R objects whose S-pointer lands
// in partition S_i — instead of being joined. Each RS_i is then sorted by
// the S-pointer (sorted runs of IRUN objects — the paper's heapsort on the
// simulator, a radix sort on the real backend — then NRUN-way merge passes
// with a delete-insert heap); because the join attribute is a virtual
// pointer, S_i itself never needs sorting. The final merge pass streams the
// sorted RS_i against a single sequential scan of S_i.
#ifndef MMJOIN_JOIN_SORT_MERGE_H_
#define MMJOIN_JOIN_SORT_MERGE_H_

#include "join/join_common.h"

namespace mmjoin::join {

/// Derived sort-merge plan parameters (section 6.2/6.3).
struct SortMergePlan {
  uint64_t irun = 0;       ///< objects per initial run
  uint64_t nrun_abl = 0;   ///< fan-in, all passes but the last
  uint64_t nrun_last = 0;  ///< fan-in bound on the last pass
  uint64_t runs0 = 0;      ///< initial run count for the largest RS_i
  uint64_t npass = 0;      ///< merging passes including the final join pass
  uint64_t lrun = 0;       ///< runs merged on the final pass
};

/// Computes IRUN/NRUN/NPASS/LRUN for a given memory size and RS_i object
/// count, per the paper's parameter-choice rules.
SortMergePlan PlanSortMerge(uint64_t m_rproc_bytes, uint32_t page_size,
                            uint64_t rs_objects, const JoinParams& params);

/// Runs the parallel pointer-based sort-merge join on `workload`.
StatusOr<JoinRunResult> RunSortMerge(sim::SimEnv* env,
                                     const rel::Workload& workload,
                                     const JoinParams& params);

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_SORT_MERGE_H_
