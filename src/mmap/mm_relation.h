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

/// Persists a built workload as a durable store: writes the
/// `<prefix>_meta` manifest segment, bulk-builds the `<prefix>_ix`
/// B+-tree over R's join keys (packed S-pointer -> segment offset of a
/// `[count][r_id...]` postings run, r_ids ascending — enough to replay
/// the exact join output), then Seal()s every segment — data first, manifest
/// LAST, so a crash at any point leaves the manifest unsealed and the
/// whole store refused on load. `policy` is the msync policy each seal
/// flushes under.
///
/// Crash-test hook: with MMJOIN_PERSIST_CRASH=N in the environment the
/// process raises SIGKILL after the N-th successful seal, leaving a
/// deterministically torn store for the recovery tests and CI job.
///
/// `pool`, when non-null, parallelizes the bulk build's dominant stage —
/// collecting and sorting R's (sptr, r_id) pairs — across the source
/// partitions as one chain set on the shared workers; a serial D-way
/// merge then restores the global order. Every r_id is globally unique,
/// so the merged sequence is the one total order a global sort would
/// produce: the persisted store is byte-identical with or without the
/// pool.
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

/// Opens the store's `<prefix>_ix` join-key index segment (sealed path).
/// Attach with BTree::Attach(&seg); the segment must outlive the tree.
StatusOr<Segment> OpenMmWorkloadIndexSegment(SegmentManager* manager,
                                             const std::string& prefix);

/// True if `<prefix>_meta` exists under the manager — the cheap "is there
/// a store here?" probe used by warm-restart scans.
bool MmWorkloadStoreExists(const SegmentManager& manager,
                           const std::string& prefix);

}  // namespace mmjoin::mm

#endif  // MMJOIN_MMAP_MM_RELATION_H_
