// Real memory-mapped segments: the µDatabase-style single-level store.
//
// A segment is a file mapped into the address space with mmap(2). Following
// the paper's "exact positioning of data" approach, all intra-segment
// references are *segment-relative offsets* (VPtr<T>), so a segment can be
// mapped at any virtual address without relocating or swizzling a single
// pointer. Each segment carries a small header with a bump allocator and a
// root offset so persistent data structures can be built, stored, and
// retrieved across process lifetimes.
//
// The three fundamental mapping operations of the paper's model — newMap
// (create), openMap (attach existing), deleteMap (destroy) — are exposed
// with wall-clock timing capture so Fig. 1(b) can be reproduced on real
// hardware.
#ifndef MMJOIN_MMAP_SEGMENT_H_
#define MMJOIN_MMAP_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace mmjoin::mm {

class Segment;

/// A segment-relative typed pointer: stores only an offset from the segment
/// base, so it remains valid across unmap/remap at different addresses and
/// across process lifetimes. offset 0 is the null value (the header occupies
/// offset 0, so no live object ever starts there).
template <typename T>
class VPtr {
 public:
  VPtr() = default;
  explicit VPtr(uint64_t offset) : offset_(offset) {}

  uint64_t offset() const { return offset_; }
  bool null() const { return offset_ == 0; }
  explicit operator bool() const { return !null(); }

  /// Resolves against a mapped segment. The segment must be mapped and the
  /// offset must lie within it.
  T* get(const Segment& segment) const;

  bool operator==(const VPtr& o) const { return offset_ == o.offset_; }

 private:
  uint64_t offset_ = 0;
};

/// Wall-clock durations of the three mapping primitives, in seconds.
struct MapTimings {
  double new_map_s = 0;
  double open_map_s = 0;
  double delete_map_s = 0;
};

/// Declarative paging intents for a mapped range — the vocabulary of the
/// paging-policy layer (DESIGN.md §7.2). Each maps onto one madvise(2)
/// request code; the intent names say what the *access pattern* is about
/// to be, so call sites read as policy rather than syscall plumbing:
///
///   kSequential    the range is about to be scanned front to back
///                  (kernel doubles readahead, drops pages behind)
///   kRandom        the range is about to be probed at random offsets
///                  (kernel disables readahead — stray pages waste memory)
///   kWillNeed      the range will be needed soon: start readahead now
///   kDontNeed      the range is dead: reclaim its pages immediately
///   kPopulateWrite the range is about to be WRITTEN in full: pre-fault
///                  every page now (MADV_POPULATE_WRITE), taking the
///                  zero-fill cost in one bulk operation instead of one
///                  minor fault per first-touched page. Degrades to a
///                  no-op on kernels without support (< 5.14).
enum class AccessIntent {
  kSequential,
  kRandom,
  kWillNeed,
  kDontNeed,
  kPopulateWrite,
};

const char* AccessIntentName(AccessIntent intent);

/// Applies `intent` to [offset, offset+length) of a mapping that starts at
/// `map_base` (any address inside a mapping). Hint intents align the range
/// outward to page boundaries, which stays inside the mapping because
/// mappings are page-granular; kDontNeed DISCARDS pages, so it aligns
/// inward instead — a boundary page shared with a still-live neighbor is
/// never dropped, and a sub-page range is an (advised = 0) no-op.
/// `map_bytes` is the logical extent used for bounds checking. On success
/// `*advised_bytes` (if non-null) receives the page-rounded number of
/// bytes the kernel was advised about.
///
/// Errors propagate: a null/unmapped base or an out-of-range request is
/// InvalidArgument; a failing madvise(2) is IOError carrying errno — with
/// the single exception of kPopulateWrite on a kernel that predates
/// MADV_POPULATE_WRITE (EINVAL), which reports OK with *advised_bytes = 0
/// so callers can treat pre-faulting as best-effort.
Status AdviseMappedRange(void* map_base, uint64_t map_bytes, uint64_t offset,
                         uint64_t length, AccessIntent intent,
                         uint64_t* advised_bytes = nullptr);

/// Fraction of [base, base+bytes) currently resident in physical memory,
/// probed page-by-page via mincore(2). Returns 1.0 for an empty range and
/// degrades to 1.0 (assume warm) where mincore is unavailable — the
/// adaptive planner uses this as a cost-model input, so a wrong-but-warm
/// answer only costs plan quality, never correctness. The probe allocates
/// one byte per page; callers pass whole segments, not huge sparse maps.
double ResidentFraction(const void* base, uint64_t bytes);

/// How eagerly a durable segment pushes dirty pages to its backing file.
/// kNone leaves write-back entirely to the kernel (fastest, weakest
/// durability), kAsync schedules write-back without waiting (MS_ASYNC),
/// kSync blocks until the pages are on stable storage (MS_SYNC).
enum class MsyncPolicy {
  kNone,
  kAsync,
  kSync,
};

const char* MsyncPolicyName(MsyncPolicy policy);

/// Parses "none" / "async" / "sync"; InvalidArgument otherwise.
StatusOr<MsyncPolicy> ParseMsyncPolicy(const std::string& name);

/// On-disk segment header (lives at offset 0 of every segment file).
///
/// The generation/clean/checksum quartet is the durable-store handshake:
/// Seal() checksums the payload, bumps the generation and marks the
/// segment clean; any subsequent mutation (Allocate, set_root, explicit
/// MarkDirty) clears `clean`. VerifySealed() refuses a segment whose header
/// or payload checksum does not verify or whose `clean` flag is down —
/// which is exactly the state a crash mid-write leaves behind, so torn
/// stores are detected at attach time instead of corrupting a join.
struct SegmentHeader {
  static constexpr uint64_t kMagic = 0x6d6d6a6f696e3032ULL;  // "mmjoin02"
  uint64_t magic = kMagic;
  uint64_t size_bytes = 0;   ///< total mapped size including header
  uint64_t bump = 0;         ///< next free offset (allocator state)
  uint64_t root = 0;         ///< application root object offset (0 = none)
  uint64_t generation = 0;   ///< successful Seal() count (0 = never sealed)
  uint64_t clean = 0;        ///< 1 = sealed and unmodified since
  uint64_t payload_checksum = 0;  ///< Checksum64 over [header end, bump)
  uint64_t header_checksum = 0;   ///< Checksum64 over the preceding fields
};

/// 8-byte-stride mixing checksum over an arbitrary byte range (trailing
/// partial word zero-padded). Not cryptographic — a torn-write detector.
uint64_t Checksum64(const void* data, uint64_t bytes);

/// One mapped file. Movable, not copyable; unmaps on destruction.
class Segment {
 public:
  Segment() = default;
  ~Segment();
  Segment(Segment&& o) noexcept;
  Segment& operator=(Segment&& o) noexcept;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  /// newMap: creates the backing file of `bytes` bytes (must exceed the
  /// header size), maps it, initializes the header. Fails if the file
  /// exists. The elapsed wall time is added to `timings->new_map_s` if
  /// non-null.
  static StatusOr<Segment> Create(const std::string& path, uint64_t bytes,
                                  MapTimings* timings = nullptr);

  /// openMap: maps an existing segment file and validates the header.
  /// Deliberately lenient about seal state — working segments mutate their
  /// bump allocator constantly, so Open only checks magic and size.
  static StatusOr<Segment> Open(const std::string& path,
                                MapTimings* timings = nullptr);

  /// openMap without header checks: maps an existing segment file that is
  /// at least one header long and validates nothing else. The durable
  /// attach path (SegmentManager::OpenSealedSegments) maps a batch this way
  /// and then runs VerifySealed() on every segment before trusting a byte.
  static StatusOr<Segment> Map(const std::string& path,
                               MapTimings* timings = nullptr);

  /// The durable-store check: requires the mapped segment to be SEALED —
  /// header checksum verifying, magic and size matching the file, `clean`
  /// up, payload checksum matching a fresh recomputation. A torn segment
  /// (crash mid-write, bit rot, truncation) is refused with an IOError
  /// naming the failing checksum. Read-only, so distinct segments can be
  /// verified concurrently.
  Status VerifySealed() const;

  /// deleteMap: destroys a segment file (and its data).
  static Status Delete(const std::string& path,
                       MapTimings* timings = nullptr);

  bool mapped() const { return base_ != nullptr; }
  /// Base address of the mapping (valid only while mapped).
  void* base() const { return base_; }
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  SegmentHeader* header() const {
    return reinterpret_cast<SegmentHeader*>(base_);
  }

  /// Bump-allocates `bytes` (8-byte aligned) within the segment; returns the
  /// offset, or ResourceExhausted when the segment is full.
  StatusOr<uint64_t> Allocate(uint64_t bytes);

  /// Typed allocation helper: allocates sizeof(T) and default-constructs.
  template <typename T>
  StatusOr<VPtr<T>> New() {
    auto off = Allocate(sizeof(T));
    if (!off.ok()) return off.status();
    new (reinterpret_cast<char*>(base_) + *off) T();
    return VPtr<T>(*off);
  }

  /// Sets / reads the application root offset in the header.
  void set_root(uint64_t offset) {
    header()->root = offset;
    header()->clean = 0;
  }
  uint64_t root() const { return header()->root; }

  /// Resolves an untyped offset. Asserts the offset is in range.
  void* Resolve(uint64_t offset) const;

  /// msync(2) the whole segment to its backing file.
  Status Sync();

  /// msync(2) the whole segment under `policy` (kNone is a no-op).
  Status Sync(MsyncPolicy policy);

  /// Seals the segment for durable attach: checksums the payload
  /// ([header end, bump)), bumps the generation, raises `clean`, checksums
  /// the header, then syncs under `policy`. After a successful Seal the
  /// file passes VerifySealed until the next mutation.
  Status Seal(MsyncPolicy policy = MsyncPolicy::kNone);

  /// Explicitly invalidates the seal (payload mutated through raw
  /// pointers, which the header cannot observe).
  void MarkDirty() { header()->clean = 0; }

  /// True when the in-memory header says "sealed and unmodified".
  bool sealed() const { return header()->clean == 1; }

  /// Applies a paging intent to the whole segment (see AdviseMappedRange).
  Status Advise(AccessIntent intent, uint64_t* advised_bytes = nullptr);

  /// Applies a paging intent to [offset, offset+length) of the segment.
  Status AdviseRange(uint64_t offset, uint64_t length, AccessIntent intent,
                     uint64_t* advised_bytes = nullptr);

  /// Unmaps without deleting the backing file.
  Status Close();

 private:
  void* base_ = nullptr;
  uint64_t size_ = 0;
  std::string path_;
};

template <typename T>
T* VPtr<T>::get(const Segment& segment) const {
  if (null()) return nullptr;
  return reinterpret_cast<T*>(segment.Resolve(offset_));
}

}  // namespace mmjoin::mm

#endif  // MMJOIN_MMAP_SEGMENT_H_
