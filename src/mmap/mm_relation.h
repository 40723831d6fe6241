// Partitioned R/S relations stored in REAL memory-mapped segments.
//
// This is the non-simulated counterpart of rel::BuildWorkload: the same
// 128-byte objects and S-pointer join attributes, but living in mmap(2)
// segments managed by a SegmentManager, so the parallel pointer joins of
// mmap_join.h run against the actual single-level store (implicit I/O via
// the host kernel's paging).
#ifndef MMJOIN_MMAP_MM_RELATION_H_
#define MMJOIN_MMAP_MM_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "mmap/segment.h"
#include "mmap/segment_manager.h"
#include "rel/relation.h"
#include "util/status.h"

namespace mmjoin::mm {

/// A pair of partitioned relations in mapped segments. Objects start at
/// `r_base`/`s_base` within each segment (after the segment header).
struct MmWorkload {
  rel::RelationConfig config;
  std::vector<Segment> r_segs;  ///< R_i, one segment per partition
  std::vector<Segment> s_segs;  ///< S_i
  std::vector<uint64_t> r_count;
  std::vector<uint64_t> s_count;
  std::vector<uint64_t> r_base;  ///< byte offset of R_i's object array
  std::vector<uint64_t> s_base;
  /// counts[i][j] = |R_{i,j}|, as in the simulated workload.
  std::vector<std::vector<uint64_t>> counts;
  /// Bucket populations per K, as in the simulated workload: filled by the
  /// first bucketed join with a given K, never by build, persist or open.
  mutable rel::BucketMemo bucket_memo;
  uint64_t expected_output_count = 0;
  uint64_t expected_checksum = 0;

  const rel::RObject* RObjects(uint32_t i) const {
    return reinterpret_cast<const rel::RObject*>(
        static_cast<const char*>(r_segs[i].base()) + r_base[i]);
  }
  const rel::SObject* SObjects(uint32_t i) const {
    return reinterpret_cast<const rel::SObject*>(
        static_cast<const char*>(s_segs[i].base()) + s_base[i]);
  }
};

/// Creates segments `<prefix>_r<i>` / `<prefix>_s<i>` under `manager` and
/// fills them exactly like rel::BuildWorkload (same seed ⇒ same join).
/// Existing segments with those names are an error (AlreadyExists).
StatusOr<MmWorkload> BuildMmWorkload(SegmentManager* manager,
                                     const std::string& prefix,
                                     const rel::RelationConfig& config);

/// Deletes the workload's segments from the manager (the MmWorkload must
/// outlive no mappings: pass it by value and let it unmap first).
Status DeleteMmWorkload(SegmentManager* manager, const std::string& prefix,
                        uint32_t num_partitions);

// ---------------------------------------------------------------------------
// Durable relation store (build once, query many, warm-restart)
// ---------------------------------------------------------------------------

/// Store manifest, the root object of the `<prefix>_meta` segment: enough
/// to reconstruct an MmWorkload on reattach without regenerating a single
/// tuple. Array fields live in the same segment at the recorded offsets.
struct StoreManifest {
  static constexpr uint64_t kMagic = 0x6d6d6a73746f7231ULL;  // "mmjstor1"
  uint64_t magic = kMagic;
  uint64_t r_objects = 0;
  uint64_t s_objects = 0;
  uint32_t num_partitions = 0;
  uint32_t pad = 0;
  uint64_t zipf_theta_bits = 0;  ///< bit pattern of the double
  uint64_t seed = 0;
  uint64_t expected_output_count = 0;
  uint64_t expected_checksum = 0;
  uint64_t r_count_off = 0;  ///< uint64_t[d] in this segment
  uint64_t s_count_off = 0;  ///< uint64_t[d]
  uint64_t counts_off = 0;   ///< uint64_t[d*d], row-major counts[i][j]
};

/// Root object of the `<prefix>_ix` segment. The store's join-key index is
/// index-NL's own (exec/op/stages.h, op::BuildIndex): per S partition i,
/// RS_i sorted in place — the (sptr, r_id)-ordered 16-byte SRef leaves of
/// every R object that points into S_i, entries × 16 bytes with no key
/// levels. The root is followed by `num_partitions` StoreIndexPartition
/// records. All positions are segment offsets, so the index attaches
/// anywhere, in any process, with no relocation. Version 1 followed each
/// leaf array with implicit key levels; it is refused.
struct StoreIndexRoot {
  static constexpr uint64_t kMagic = 0x6d6d6a6978303031ULL;  // "mmjix001"
  static constexpr uint32_t kVersion = 2;
  uint64_t magic = kMagic;
  uint32_t version = kVersion;
  uint32_t num_partitions = 0;
};

/// One partition's record in the `_ix` root table.
struct StoreIndexPartition {
  uint64_t entries = 0;   ///< leaf refs: sum_j counts[j][i]
  uint64_t byte_off = 0;  ///< segment offset of the leaf array
};

/// Persists a built workload as a durable store: writes the `<prefix>_ix`
/// join-key index and the `<prefix>_meta` manifest segment, then Seal()s
/// every segment — data first, manifest LAST, so a crash at any point
/// leaves the manifest unsealed and the whole store refused on load.
/// `policy` is the msync policy each seal flushes under.
///
/// The index is built by index-NL's build stage (op::BuildIndex) on a
/// RealBackend over the workload: on `pool` when one is given, on the
/// backend's own workers otherwise; each sorted RS_i is copied into `_ix`.
/// Its leaves are in (sptr, r_id) order, a total order, so `_ix` is
/// byte-identical with or without the pool and for any worker count. The
/// stage runs op::Partition, so R holding an S-pointer that names no S
/// object is refused with Corruption before any seal. It fills the
/// workload's bucket memo for the K it plans.
///
/// Crash-test hook: with MMJOIN_PERSIST_CRASH=N in the environment the
/// process raises SIGKILL after the N-th successful seal, leaving a
/// deterministically torn store for the recovery tests and CI job.
Status PersistMmWorkload(SegmentManager* manager, const std::string& prefix,
                         MmWorkload* workload,
                         MsyncPolicy policy = MsyncPolicy::kNone,
                         exec::SharedWorkerPool* pool = nullptr);

/// Reattaches a persisted store: every segment is opened through the
/// sealed path (checksums verified), the manifest is validated, and the
/// workload is reconstructed — same config, counts, oracle expectations
/// and object arrays as the original BuildMmWorkload, without
/// regenerating anything.
StatusOr<MmWorkload> OpenMmWorkload(SegmentManager* manager,
                                    const std::string& prefix);

/// The store's join-key index, attached and checked against a workload:
/// the sealed `<prefix>_ix` segment and, per S partition i, its entry
/// count and the start of its entries[i] × 16-byte leaf array.
struct MmWorkloadIndex {
  Segment segment;
  std::vector<uint64_t> entries;
  std::vector<const void*> bytes;
};

/// Opens `<prefix>_ix` through the sealed path (checksums verified) and
/// validates its root against `workload`: magic and version (an index of
/// another format, such as an older store's, is refused), D, every
/// partition's entry count against the workload's counts, and every
/// partition's entries × 16 bytes inside the allocated part of the
/// segment. Each refusal is an IOError naming the store.
StatusOr<MmWorkloadIndex> OpenMmWorkloadIndex(SegmentManager* manager,
                                              const std::string& prefix,
                                              const MmWorkload& workload);

/// True if `<prefix>_meta` exists under the manager — the cheap "is there
/// a store here?" probe used by warm-restart scans.
bool MmWorkloadStoreExists(const SegmentManager& manager,
                           const std::string& prefix);

}  // namespace mmjoin::mm

#endif  // MMJOIN_MMAP_MM_RELATION_H_
