// Relation layout for pointer-based joins.
//
// R and S are partitioned across the D disks (R_i and S_i share disk i, in
// that on-disk order, per the layout diagrams of sections 5-7). The join
// attribute of an R object is a *virtual pointer* into S — an SPtr packing
// (partition, index) — which provides the implicit ordering of S that lets
// sort-merge and Grace skip sorting/hashing S entirely.
#ifndef MMJOIN_REL_RELATION_H_
#define MMJOIN_REL_RELATION_H_

#include <cstdint>
#include <vector>

#include "rel/bucket_memo.h"
#include "sim/sim_env.h"
#include "util/status.h"

namespace mmjoin::rel {

/// A virtual pointer to an S object: partition in the top 12 bits, index
/// within the partition in the low 52. The packed value is monotone in
/// (partition, index), which is the ordering property the algorithms rely
/// on.
struct SPtr {
  uint32_t partition = 0;
  uint64_t index = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(partition) << 52) | index;
  }
  static SPtr Unpack(uint64_t v) {
    return SPtr{static_cast<uint32_t>(v >> 52), v & ((uint64_t{1} << 52) - 1)};
  }
};

/// An R object: 128 bytes, with the S-pointer join attribute embedded.
struct RObject {
  uint64_t id = 0;       ///< unique R identifier (global index)
  uint64_t sptr = 0;     ///< packed SPtr — the join attribute
  uint8_t payload[112] = {};
};
static_assert(sizeof(RObject) == 128, "paper uses 128-byte objects");

/// An S object: 128 bytes.
struct SObject {
  uint64_t id = 0;   ///< unique S identifier (global index)
  uint64_t key = 0;  ///< verification key, a deterministic mix of the id
  uint8_t payload[112] = {};
};
static_assert(sizeof(SObject) == 128, "paper uses 128-byte objects");

/// Deterministic 64-bit mixer (SplitMix64 finalizer).
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The verification key stored in S objects and recomputable from any SPtr.
inline uint64_t SKeyFor(uint32_t partition, uint64_t index) {
  return Mix64((static_cast<uint64_t>(partition) << 52) ^ index ^
               0xa5a5a5a5a5a5a5a5ULL);
}

/// Contribution of one join output tuple to the order-independent checksum.
inline uint64_t OutputDigest(uint64_t r_id, uint64_t s_key) {
  return Mix64(r_id ^ (s_key * 0x9e3779b97f4a7c15ULL));
}

/// Workload generation parameters (defaults = the paper's validation setup:
/// |R| = |S| = 102400 objects of 128 bytes over 4 disks).
struct RelationConfig {
  uint64_t r_objects = 102400;
  uint64_t s_objects = 102400;
  uint32_t num_partitions = 4;  ///< D
  double zipf_theta = 0.0;      ///< skew of the S-pointer distribution
  uint64_t seed = 20260704;
};

/// A generated pair of partitioned relations living in a SimEnv, plus the
/// precomputed metadata the drivers need (sub-partition counts, skew, and
/// the expected join for verification).
struct Workload {
  RelationConfig config;
  std::vector<sim::SegId> r_segs;  ///< R_i, one per disk
  std::vector<sim::SegId> s_segs;  ///< S_i, one per disk
  std::vector<uint64_t> r_count;   ///< |R_i|
  std::vector<uint64_t> s_count;   ///< |S_i|
  /// counts[i][j] = |R_{i,j}|: objects of R_i whose pointer lands in S_j.
  std::vector<std::vector<uint64_t>> counts;
  double skew = 1.0;  ///< max_{i,j} |R_{i,j}| / (|R_i| / D)
  /// Bucket populations per K, counted by the first bucketed join that
  /// needs them (exec::op::PlanBucketedRs). A cache over R: joins on a
  /// const workload fill it.
  mutable BucketMemo bucket_memo;

  uint64_t expected_output_count = 0;
  uint64_t expected_checksum = 0;  ///< sum of OutputDigest over the join

  uint64_t RObjectsTotal() const { return config.r_objects; }
  /// Byte offset of R object `index` inside a partition segment.
  static uint64_t ROffset(uint64_t index) { return index * sizeof(RObject); }
  static uint64_t SOffset(uint64_t index) { return index * sizeof(SObject); }
};

}  // namespace mmjoin::rel

#endif  // MMJOIN_REL_RELATION_H_
