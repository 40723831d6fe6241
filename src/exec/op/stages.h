// Reusable pass stages of the six join drivers, lifted out of
// exec/join_drivers.h so the drivers become thin compositions and new
// plan shapes (exec/op/operators.h) can reuse the same machinery.
//
// Every temporary a stage fills or reads (RP_{i,j}, RS_i, sort-merge's
// Merge and Swap areas) holds the backend's B::Tuple: whole 128-byte
// objects on the simulator, 16-byte (r_id, sptr) refs on the real
// backend. Partition narrows each R object once, as it leaves the R scan;
// every later stride is sizeof(B::Tuple).
//
// A stage is a template over the exec::Backend concept that owns one pass
// shape — the morsel bracketing, staggered phase schedule, epilogue
// placement and span emission — while the caller supplies the per-driver
// routing policy as template callables that append each routed object
// straight to its band. On the simulator the sequence of backend
// operations (reads, writes, charges, barriers, pass marks) is
// bit-identical to the pre-refactor monolithic drivers
// (tests/sim_golden_test.cc); on both backends every driver produces the
// oracle's count and checksum (tests/cross_backend_test.cc,
// tests/operators_test.cc).
//
// Stage vocabulary:
//   Partition        pass-0 scan of R_i: route own-partition objects,
//                    append foreign ones to RP_{i,dest}
//   PhasedRepartition D-1 staggered phases moving RP_{i,j} into RS_j
//   BucketRepartition passes 0/1 of Grace, hybrid hash and index-NL: hash
//                    R into RS_i's K monotone buckets, retire RP
//   ProbePhases      D-1 staggered probe-only phases (nested loops)
//   LoadR/LoadTuple  one R-object / temporary-tuple read: in place (real)
//                    or a copy (sim)
//   SFetch           the S-fetch protocol of one partition: Push refs,
//                    Finish drains them (per tuple or batched)
//   SortRuns         sort IRUN-tuple runs of RS_i by S-pointer through the
//                    backend's SortRefs: a counted heapsort plus an object
//                    permutation on the simulator, an in-place radix sort
//                    of the SRef run on the real backend
//   MergeJoinRuns    k-way merge passes + final merge-join sweep of S_i
//   BuildChainTable  TSIZE-chain in-memory hash table build (Build)
//   ProbeChainTable  drain the chains through the S-fetch protocol (Probe)
//   ProbeResident    hybrid hash's in-memory bucket 0 through the protocol
//   BuildProbeBuckets per-bucket build+probe loop over RS_i bands
//   BucketLayout     contiguous bucket regions + one-writer bump cursors
//                    that refuse a claim past their region's end
//   PassError        the first corruption a pass met, from any worker
//   CountBuckets     per-worker histogram of the RS bucket populations
//   PlanBucketedRs   K/TSIZE plan + bucket layout from the workload's
//                    memoized histogram, counted on its first use per K
//                    and checked against the counts metadata every join
//   IndexLayout      implicit static B+-tree over a sorted SRef leaf array
//   SortIndexRun     per-bucket leaf packing of the index-NL driver
//                    (SortRefs by (sptr, r_id))
//   BuildIndexLevels derive the internal key levels bottom-up
//   ProbeIndexRange  one descent + leaf-range scan per S morsel
#ifndef MMJOIN_EXEC_OP_STAGES_H_
#define MMJOIN_EXEC_OP_STAGES_H_

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/backend.h"
#include "heap/merge_heap.h"
#include "join/grace.h"
#include "join/join_common.h"
#include "join/sort_merge.h"
#include "rel/bucket_memo.h"

namespace mmjoin::exec::op {

inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// |RS_i| = sum_j |R_{j,i}|: everything pointing into S_i.
template <Backend B>
std::vector<uint64_t> RsObjects(const B& ex) {
  const uint32_t d = ex.D();
  std::vector<uint64_t> rs(d, 0);
  for (uint32_t i = 0; i < d; ++i) {
    for (uint32_t j = 0; j < d; ++j) rs[i] += ex.SubCount(j, i);
  }
  return rs;
}

/// |R_i| per partition — the tuple counts of every pass-0 scan.
template <Backend B>
std::vector<uint64_t> RCounts(const B& ex) {
  const uint32_t d = ex.D();
  std::vector<uint64_t> counts(d);
  for (uint32_t i = 0; i < d; ++i) counts[i] = ex.r_count(i);
  return counts;
}

/// |RP_{i, offset(i,t)}| per partition — the tuple counts of phase t of
/// pass 1 (each partition works against its staggered partner).
template <Backend B>
std::vector<uint64_t> PhaseCounts(const B& ex, uint32_t t) {
  const uint32_t d = ex.D();
  std::vector<uint64_t> counts(d);
  for (uint32_t i = 0; i < d; ++i) {
    counts[i] = ex.RpSubCount(i, join::PhaseOffset(i, t, d));
  }
  return counts;
}

/// Reads one T through partition i's process. The real backend's Read is a
/// stable pointer into the mapping, so the value is returned in place: an
/// R object's (id, sptr) then costs one cache line of the 128-byte object
/// instead of the two a full copy pulls. The simulator's Read points into a
/// page-cache frame that a later read may evict, so it is copied. Call
/// sites bind the result with `const auto&`.
template <typename T, Backend B>
decltype(auto) LoadAs(B& ex, uint32_t i, typename B::Seg seg,
                      uint64_t offset) {
  const void* src = ex.Read(i, seg, offset, sizeof(T));
  if constexpr (B::kBatchedProbe) {
    return *static_cast<const T*>(src);
  } else {
    T value;
    std::memcpy(&value, src, sizeof(value));
    return value;
  }
}

/// One R object of an R scan.
template <Backend B>
decltype(auto) LoadR(B& ex, uint32_t i, typename B::Seg seg,
                     uint64_t offset) {
  return LoadAs<rel::RObject>(ex, i, seg, offset);
}

/// One tuple of a join temporary (RP, RS, Merge, Swap).
template <Backend B>
decltype(auto) LoadTuple(B& ex, uint32_t i, typename B::Seg seg,
                         uint64_t offset) {
  return LoadAs<typename B::Tuple>(ex, i, seg, offset);
}

/// Narrows an R object to the backend's tuple as it leaves the R scan: the
/// object itself on the simulator, its 16-byte (id, sptr) ref on the real
/// backend. Call sites bind the result with `const auto&`.
template <Backend B>
decltype(auto) ToTuple(const rel::RObject& obj) {
  if constexpr (std::same_as<typename B::Tuple, rel::RObject>) {
    return obj;
  } else {
    return RefOf(obj);
  }
}

/// S-ref scratch capacity of SFetch on a batching backend: large enough
/// that the prefetch pipeline's fill/drain is amortized, small enough to
/// stay in L2.
inline constexpr uint64_t kProbeScratch = 8192;

/// The S-fetch protocol of partition i, the paper's Rproc side: Push
/// requests the S object behind each (r_id, sptr), Finish drains what is
/// pending through FlushSRequests. On the simulator Push is one RequestS
/// (the G buffer is the batching). On a batching backend Push stages into
/// a caller-local scratch of kProbeScratch refs, sent with RequestSBatch;
/// `expect` (the refs the caller will push, if known) only sizes it. It is
/// also an own-partition handler for Partition, which calls Finish at the
/// end of each morsel; as a handler it never refuses a tuple.
template <Backend B>
class SFetch {
 public:
  explicit SFetch(B& ex, uint32_t i, uint64_t expect = kProbeScratch)
      : ex_(ex), i_(i) {
    if constexpr (B::kBatchedProbe) {
      scratch_.reserve(std::min(expect, kProbeScratch));
    }
  }
  void Push(uint64_t r_id, uint64_t sptr) {
    if constexpr (B::kBatchedProbe) {
      scratch_.push_back(SRef{r_id, sptr});
      if (scratch_.size() == kProbeScratch) Send();
    } else {
      ex_.RequestS(i_, r_id, sptr);
    }
  }
  bool operator()(const typename B::Tuple& tuple, rel::SPtr) {
    const SRef& ref = RefOf(tuple);
    Push(ref.r_id, ref.sptr);
    return true;
  }
  void Finish() {
    if constexpr (B::kBatchedProbe) {
      if (!scratch_.empty()) Send();
    }
    ex_.FlushSRequests(i_);
  }

 private:
  void Send() {
    ex_.RequestSBatch(i_, scratch_.data(), scratch_.size());
    scratch_.clear();
  }

  B& ex_;
  uint32_t i_;
  std::vector<SRef> scratch_;
};

// ---------------------------------------------------------------------------
// Append / layout primitives
// ---------------------------------------------------------------------------

/// One append of `n` tuples into a laid-out region: byte movement plus
/// the per-byte move charge. Partition passes call it with n = 1 per routed
/// tuple; sort-merge's real pass 1 moves a whole RP_{i,j} morsel as one
/// run. The caller owns cursor bookkeeping — one writer per target within
/// any pass/phase.
template <Backend B>
void AppendRun(B& ex, uint32_t writer, typename B::Seg seg, uint64_t byte_off,
               const typename B::Tuple* run, uint64_t n) {
  const uint64_t bytes = n * sizeof(typename B::Tuple);
  std::memcpy(ex.Write(writer, seg, byte_off, bytes), run, bytes);
  ex.ChargeCpu(writer, static_cast<double>(bytes) * ex.mc().mt_pp_ms);
}

/// Contiguous bucket regions of each RS_i plus one bump cursor per region
/// (K = 1 degenerates to the sort-merge flat RS_i layout). Pure
/// bookkeeping: byte movement and cost charging stay with AppendRun. The
/// cursors need no synchronization — within any pass/phase exactly one
/// worker writes a given target, and the backend barrier between phases
/// publishes them. A cursor never passes its region's end: the regions are
/// sized from metadata and filled from R, so R that disagrees with the
/// metadata is refused instead of overrunning a band.
class BucketLayout {
 public:
  /// `counts[i][b]` = tuples bound for bucket b of RS_i; `tuple_bytes` is
  /// the backend's sizeof(Tuple).
  void Init(const std::vector<std::vector<uint64_t>>& counts,
            uint64_t tuple_bytes) {
    const size_t d = counts.size();
    const size_t k = d ? counts[0].size() : 0;
    tuple_bytes_ = tuple_bytes;
    offset_.assign(d, std::vector<uint64_t>(k + 1, 0));
    for (size_t i = 0; i < d; ++i) {
      uint64_t total = 0;
      for (size_t b = 0; b < k; ++b) {
        offset_[i][b] = total * tuple_bytes;
        total += counts[i][b];
      }
      offset_[i][k] = total * tuple_bytes;
    }
    cursor_ = offset_;
  }

  /// Byte offset of bucket b within RS_i.
  uint64_t Offset(uint32_t i, uint32_t b) const { return offset_[i][b]; }
  /// Tuples bound for bucket b of RS_i.
  uint64_t Count(uint32_t i, uint32_t b) const {
    return (offset_[i][b + 1] - offset_[i][b]) / tuple_bytes_;
  }
  /// Total tuples across RS_i's buckets.
  uint64_t Total(uint32_t i) const {
    const size_t k = offset_[i].size() - 1;
    return offset_[i][k] / tuple_bytes_;
  }
  /// Claims `n` consecutive slots of bucket b; returns the byte offset of
  /// the first within RS_i, or nullopt, claiming nothing, when fewer than
  /// `n` slots are left.
  [[nodiscard]] std::optional<uint64_t> Claim(uint32_t i, uint32_t b,
                                              uint64_t n) {
    const uint64_t off = cursor_[i][b];
    const uint64_t bytes = n * tuple_bytes_;
    if (bytes > offset_[i][b + 1] - off) return std::nullopt;
    cursor_[i][b] = off + bytes;
    return off;
  }
  /// True when every bucket region is exactly full.
  bool Filled() const {
    for (size_t i = 0; i < cursor_.size(); ++i) {
      for (size_t b = 0; b + 1 < cursor_[i].size(); ++b) {
        if (cursor_[i][b] != offset_[i][b + 1]) return false;
      }
    }
    return true;
  }

 private:
  uint64_t tuple_bytes_ = 1;
  std::vector<std::vector<uint64_t>> offset_;  // [i][b] bytes, [i][k] end
  /// [i][b] byte offset of bucket b's next free slot; [i][k] unused.
  std::vector<std::vector<uint64_t>> cursor_;
};

/// The first corruption a pass met. Any worker may call Fail; only the
/// failure path takes the lock. Read status() after the pass's barrier.
class PassError {
 public:
  void Fail(Status st) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = std::move(st);
  }
  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  mutable std::mutex mu_;
  Status status_;  ///< guarded by mu_
};

/// The corruption of an R object whose pointer names no S partition.
inline Status NoSuchPartition(uint32_t i, uint64_t r_id, uint32_t d) {
  return Status::Corruption("R_" + std::to_string(i) + " object " +
                            std::to_string(r_id) +
                            " points past the last S partition (D = " +
                            std::to_string(d) + ")");
}

/// Counts the rel::BucketHistogram of one K from the raw R partitions as a
/// parallel pre-pass: independent morsels of every R_i add into a
/// per-worker-slot histogram, and the slots are reduced in slot order
/// after the barrier. Metadata, not charged: the simulator's
/// ForEachPartitionTuples is a serial uncharged loop with one slot. Each
/// destination's bucket divisor is a GraceBucketMap, the reciprocal
/// multiply passes 0 and 1 use. Own-partition bucket-0 objects always
/// count in `resident`, so one histogram serves hybrid hash and, folded
/// back into bucket 0, Grace and index-NL. An object whose pointer names no
/// partition is counted in no cell, so the routed totals cannot match the
/// counts metadata. PlanBucketedRs runs this once per workload and K.
template <Backend B>
rel::BucketHistogram CountBuckets(B& ex, uint32_t k_buckets) {
  const uint32_t d = ex.D();
  std::vector<join::GraceBucketMap> maps;
  maps.reserve(d);
  for (uint32_t j = 0; j < d; ++j) maps.emplace_back(ex.s_count(j), k_buckets);

  // One slot: [j][b] bucket counts with column K for the resident
  // diversion, then the [i][j] routed counts.
  const uint64_t cols = uint64_t{k_buckets} + 1;
  const uint64_t routed_at = uint64_t{d} * cols;
  std::vector<std::vector<uint64_t>> slots(
      ex.WorkerSlots(), std::vector<uint64_t>(routed_at + uint64_t{d} * d, 0));
  ex.ForEachPartitionTuples(
      RCounts(ex),
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        uint64_t* hist = slots[ex.WorkerSlot()].data();
        uint64_t* routed = hist + routed_at + uint64_t{i} * d;
        const rel::RObject* objs = ex.RawR(i);
        for (uint64_t k = begin; k < end; ++k) {
          const rel::SPtr sp = rel::SPtr::Unpack(objs[k].sptr);
          if (sp.partition >= d) continue;
          uint32_t b = maps[sp.partition].Of(sp.index);
          if (b == 0 && sp.partition == i) b = k_buckets;
          ++hist[sp.partition * cols + b];
          ++routed[sp.partition];
        }
      },
      /*independent=*/true);

  rel::BucketHistogram h;
  h.buckets.assign(d, std::vector<uint64_t>(k_buckets, 0));
  h.resident.assign(d, 0);
  h.routed.assign(d, std::vector<uint64_t>(d, 0));
  for (const std::vector<uint64_t>& slot : slots) {
    for (uint32_t j = 0; j < d; ++j) {
      for (uint32_t b = 0; b < k_buckets; ++b) {
        h.buckets[j][b] += slot[j * cols + b];
      }
      h.resident[j] += slot[j * cols + k_buckets];
      for (uint32_t i = 0; i < d; ++i) {
        h.routed[i][j] += slot[routed_at + uint64_t{i} * d + j];
      }
    }
  }
  return h;
}

/// RS_i of Grace, hybrid hash and index-NL: |RS_i|, the K/TSIZE plan sized
/// off the largest RS_i, the bucket layout, and whether this join read R
/// to count it (1) or took it from the workload's memo (0).
struct BucketedRs {
  std::vector<uint64_t> objects;  // |RS_i|
  join::GracePlan plan;
  BucketLayout layout;
  uint32_t histogram_scans = 0;
};

/// Plans BucketedRs. With `resident` non-null (hybrid hash), own bucket-0
/// objects stay out of the layout and resident[i] receives their count;
/// otherwise they fold back into bucket 0.
///
/// The bucket populations come from the workload's memo (rel/bucket_memo.h)
/// and are counted by CountBuckets only on the first join with this K, so a
/// warm join lays RS out without reading R. Every join, hit or miss, checks
/// the histogram's routed counts against the workload's current counts
/// metadata (D² compares) and returns Corruption, before any RP or RS
/// write, when they differ; a miss stores its histogram only after that
/// check passes. Every counted object lands in one routed cell and one
/// bucket (or resident) cell of the same RS_j, so routed == SubCount also
/// pins every RS_j total. R edited after the count is caught where it is
/// read: Partition refuses a pointer into no partition, and the RP and RS
/// cursors refuse to pass or fall short of their bands' ends.
template <Backend B>
StatusOr<BucketedRs> PlanBucketedRs(B& ex, const join::JoinParams& params,
                                    std::vector<uint64_t>* resident) {
  const uint32_t d = ex.D();
  BucketedRs rs;
  rs.objects = RsObjects(ex);
  const uint64_t max_rs =
      *std::max_element(rs.objects.begin(), rs.objects.end());
  rs.plan = join::PlanGrace(params.m_rproc_bytes, max_rs, params);
  const uint32_t k = rs.plan.k_buckets;

  std::shared_ptr<const rel::BucketHistogram> h = ex.bucket_memo().Find(k);
  const bool miss = h == nullptr;
  if (miss) {
    h = std::make_shared<const rel::BucketHistogram>(CountBuckets(ex, k));
  }
  assert(h->buckets.size() == d && h->buckets[0].size() == k);
  for (uint32_t i = 0; i < d; ++i) {
    for (uint32_t j = 0; j < d; ++j) {
      if (h->routed[i][j] != ex.SubCount(i, j)) {
        return Status::Corruption(
            "R_" + std::to_string(i) + " holds " +
            std::to_string(h->routed[i][j]) + " pointers into S_" +
            std::to_string(j) + ", its counts metadata says " +
            std::to_string(ex.SubCount(i, j)));
      }
    }
  }
  if (miss) {
    ex.bucket_memo().Insert(k, h);
    rs.histogram_scans = 1;
  }

  if (resident != nullptr) {
    rs.layout.Init(h->buckets, sizeof(typename B::Tuple));
    *resident = h->resident;
  } else {
    std::vector<std::vector<uint64_t>> buckets = h->buckets;
    for (uint32_t j = 0; j < d; ++j) buckets[j][0] += h->resident[j];
    rs.layout.Init(buckets, sizeof(typename B::Tuple));
  }
  for (uint32_t j = 0; j < d; ++j) {
    assert(rs.layout.Total(j) + (resident ? (*resident)[j] : 0) ==
           rs.objects[j]);
  }
  return rs;
}

// ---------------------------------------------------------------------------
// Partition (pass 0)
// ---------------------------------------------------------------------------

/// Pass 0 of every driver but MPSM: morsel-scan R_i (chained — morsels
/// share the partition's output cursors), narrow each object to the
/// backend's tuple (ToTuple), append every foreign tuple to
/// RP_{i, sp.partition}, and route every own-partition tuple to
/// `own(tuple, sp)`, the per-morsel handler `make_own(i, begin, end)`
/// returns. The handler returns false when its band refuses the tuple, and
/// may expose Finish(), run at the end of the morsel. Each object is
/// charged the map_ms of mapping its join attribute to a target.
///
/// Returns Corruption when R disagrees with the metadata the bands were
/// sized from: a pointer into no partition, a full RP_{i,j} or own band,
/// or an RP_{i,j} left short. The morsel that meets one stops there; no
/// band is written past its end.
template <Backend B, typename OwnFactory>
Status Partition(B& ex, OwnFactory&& make_own, bool sync) {
  const uint32_t d = ex.D();
  PassError error;
  ex.ForEachPartitionTuples(
      RCounts(ex),
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        auto own = make_own(i, begin, end);
        const typename B::Seg r_seg = ex.r_seg(i);
        for (uint64_t k = begin; k < end; ++k) {
          const auto& obj = LoadR(ex, i, r_seg, rel::Workload::ROffset(k));
          const auto& tuple = ToTuple<B>(obj);
          ex.ChargeCpu(i, ex.mc().map_ms);  // map the join attribute
          const rel::SPtr sp = rel::SPtr::Unpack(tuple.sptr);
          if (sp.partition == i) {
            if (!own(tuple, sp)) {
              error.Fail(Status::Corruption(
                  "R_" + std::to_string(i) + " holds more own-partition "
                  "objects than its band of RS_" + std::to_string(i) +
                  " was sized for"));
              break;
            }
          } else if (sp.partition >= d) {
            error.Fail(NoSuchPartition(i, RefOf(tuple).r_id, d));
            break;
          } else if (!ex.AppendToRp(i, sp.partition, tuple)) {
            error.Fail(Status::Corruption(
                "R_" + std::to_string(i) + " holds more pointers into S_" +
                std::to_string(sp.partition) +
                " than its counts metadata says"));
            break;
          }
        }
        if constexpr (requires { own.Finish(); }) own.Finish();
      },
      /*independent=*/false);
  if (sync) ex.SyncClocks();
  ex.MarkPass("pass0");
  MMJOIN_RETURN_NOT_OK(error.status());
  if (!ex.RpFilled()) {
    return Status::Corruption(
        "an RP band was left short: R holds fewer pointers into some S_j "
        "than its counts metadata says");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PhasedRepartition (pass 1 of sort-merge / Grace / hybrid hash / index-NL)
// ---------------------------------------------------------------------------

/// D-1 staggered phases moving each RP_{i,j} into RS_j (j = the phase-t
/// partner of i). Chained morsels share RS_j's cursors; the per-partition
/// epilogue — publishing RS_j's pages back to their owner's disk image and
/// the phase span — runs on the final morsel (end == count; an empty
/// partition still gets one [0,0) morsel). `route(i, j, base, begin, end)`
/// appends the morsel's tuples to RS_j and returns false when RS_j's band
/// refuses one; the phases then end with Corruption.
template <Backend B, typename RouteFn>
Status PhasedRepartition(B& ex, const std::vector<typename B::Seg>& rs_segs,
                         RouteFn&& route, bool sync) {
  const uint32_t d = ex.D();
  PassError error;
  for (uint32_t t = 1; t < d; ++t) {
    const std::vector<uint64_t> phase_counts = PhaseCounts(ex, t);
    ex.ForEachPartitionTuples(
        phase_counts,
        [&](uint32_t i, uint64_t begin, uint64_t end) {
          const uint32_t j = join::PhaseOffset(i, t, d);
          const uint64_t base = ex.RpSubOffset(i, j);
          const double phase_start_ms = ex.clock_ms(i);
          if (!route(i, j, base, begin, end)) {
            error.Fail(Status::Corruption(
                "RP_" + std::to_string(i) + "," + std::to_string(j) +
                " overflows its band of RS_" + std::to_string(j) +
                ": R disagrees with the metadata RS was sized from"));
          }
          if (end == phase_counts[i]) {
            // Hand the written RS_j pages back to their owner's disk image.
            ex.DropSegment(i, rs_segs[j], /*discard=*/false);
            if (ex.tracing()) {
              ex.Span(i, "phase " + std::to_string(t), "phase",
                      phase_start_ms,
                      {obs::Arg("partner", uint64_t{j}),
                       obs::Arg("objects", end - begin)});
            }
          }
        },
        /*independent=*/false);
    if (sync) ex.SyncClocks();
    MMJOIN_RETURN_NOT_OK(error.status());
  }
  return Status::OK();
}

/// The corruption of an RS band that passes 0 and 1 left short.
inline Status RsLeftShort() {
  return Status::Corruption(
      "an RS band was left short: R disagrees with the metadata RS was "
      "sized from");
}

/// Retires the RP temporaries: they are scratch, so deleteMap discards
/// their dirty pages.
template <Backend B>
Status DropRpSegments(B& ex) {
  for (uint32_t i = 0; i < ex.D(); ++i) {
    ex.DropSegment(i, ex.rp_seg(i), /*discard=*/true);
    MMJOIN_RETURN_NOT_OK(ex.DeleteSegment(ex.rp_seg(i)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// BucketRepartition (passes 0 and 1 of Grace / hybrid hash / index-NL)
// ---------------------------------------------------------------------------

/// Hashes all of R into RS_i's K monotone buckets (laid out by `layout`),
/// retires RP and marks "pass1". Pass 0 appends foreign objects to
/// RP_{i,dest} and hashes own ones into RS_i's buckets; pass 1's phases
/// hash RP_{i,j} into RS_j's K buckets. With `resident` non-null (hybrid
/// hash), own bucket-0 objects go to resident[i] instead, one private move
/// each; `layout` must then come from PlanBucketedRs with the same
/// diversion. Returns Corruption, as Partition and PhasedRepartition do,
/// when R disagrees with the layout: a bucket that refuses a tuple, or one
/// left short after pass 1.
template <Backend B>
Status BucketRepartition(B& ex, const std::vector<typename B::Seg>& rs_segs,
                         BucketLayout& layout, uint32_t k_buckets,
                         std::vector<std::vector<SRef>>* resident, bool sync) {
  const sim::MachineConfig& mc = ex.mc();
  const uint64_t t = sizeof(typename B::Tuple);
  auto bucket_append = [&](uint32_t writer, uint32_t target, uint32_t b,
                           const typename B::Tuple& tuple) {
    const std::optional<uint64_t> off = layout.Claim(target, b, 1);
    if (!off) return false;
    AppendRun(ex, writer, rs_segs[target], *off, &tuple, 1);
    return true;
  };

  // ---- Pass 0: partition R_i; own-partition objects hash into RS_i. ----
  MMJOIN_RETURN_NOT_OK(Partition(
      ex,
      [&](uint32_t i, uint64_t, uint64_t) {
        return [&, i, bmap = join::GraceBucketMap(ex.s_count(i), k_buckets)](
                   const typename B::Tuple& tuple, rel::SPtr sp) {
          ex.ChargeCpu(i, mc.hash_ms);
          const uint32_t b = bmap.Of(sp.index);
          if (resident != nullptr && b == 0) {
            (*resident)[i].push_back(RefOf(tuple));
            ex.ChargeCpu(i, static_cast<double>(t) * mc.mt_pp_ms);
            return true;
          }
          return bucket_append(i, i, b, tuple);
        };
      },
      sync));

  // ---- Pass 1: staggered phases hash RP_{i,j} into RS_j's buckets. ----
  MMJOIN_RETURN_NOT_OK(PhasedRepartition(
      ex, rs_segs,
      [&](uint32_t i, uint32_t j, uint64_t base, uint64_t begin,
          uint64_t end) {
        // Every object in RP_{i,j} points into S_j, so the bucket divisor
        // |S_j| is morsel-constant.
        const join::GraceBucketMap bmap(ex.s_count(j), k_buckets);
        const typename B::Seg rp_seg = ex.rp_seg(i);
        for (uint64_t k = begin; k < end; ++k) {
          const auto& tuple = LoadTuple(ex, i, rp_seg, base + k * t);
          ex.ChargeCpu(i, mc.hash_ms);
          if (!bucket_append(
                  i, j, bmap.Of(rel::SPtr::Unpack(tuple.sptr).index),
                  tuple)) {
            return false;
          }
        }
        return true;
      },
      sync));
  if (!layout.Filled()) return RsLeftShort();

  MMJOIN_RETURN_NOT_OK(DropRpSegments(ex));
  ex.MarkPass("pass1");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ProbePhases (pass 1 of nested loops)
// ---------------------------------------------------------------------------

/// D-1 staggered probe-only phases over the RP_{i,j}: each morsel is one
/// backend ProbeRun over its slice of the band. Probes touch no shared
/// output target (the real backend tallies per worker), so morsels are
/// independent and one hot partner — a Zipf-skewed RP_{i,j} — spreads
/// across every worker instead of serializing the phase. Each
/// phase opens with a kWillNeed hint on the partner band it is about to
/// read. A dead band is not retired: RP is an arena-owned temporary whose
/// pages the real backend keeps for the next join.
template <Backend B>
void ProbePhases(B& ex, bool sync) {
  const uint32_t d = ex.D();
  for (uint32_t t = 1; t < d; ++t) {
    for (uint32_t i = 0; i < d; ++i) {
      const uint32_t j = join::PhaseOffset(i, t, d);
      ex.AdviseRange(i, ex.rp_seg(i), ex.RpSubOffset(i, j),
                     ex.RpSubCount(i, j) * sizeof(typename B::Tuple),
                     AccessIntent::kWillNeed);
    }
    ex.ForEachPartitionTuples(
        PhaseCounts(ex, t),
        [&](uint32_t i, uint64_t begin, uint64_t end) {
          const uint32_t j = join::PhaseOffset(i, t, d);
          const uint64_t base = ex.RpSubOffset(i, j);
          const double phase_start_ms = ex.clock_ms(i);
          // A phase only probes: hand the contiguous band slice over as
          // one run.
          ex.ProbeRun(i, ex.rp_seg(i),
                      base + begin * sizeof(typename B::Tuple), end - begin);
          ex.FlushSRequests(i);
          if (ex.tracing()) {
            ex.Span(i, "phase " + std::to_string(t), "phase", phase_start_ms,
                    {obs::Arg("partner", uint64_t{j}),
                     obs::Arg("objects", end - begin)});
          }
        },
        /*independent=*/true);
    if (sync) ex.SyncClocks();
  }
  ex.MarkPass("pass1");
}

// ---------------------------------------------------------------------------
// Sort + MergeJoin (sort-merge pass 2)
// ---------------------------------------------------------------------------

/// Sorts RS_i into IRUN-tuple runs in place, by S-pointer, through the
/// backend's SortRefs. A run of SRefs (the real backend) is sorted where it
/// lies. A run of objects (the simulator) is read in, its (run position,
/// sptr) refs are sorted — the position rides in r_id — and the objects
/// are permuted into that order (one MTpp move per object) and written
/// back. Returns the run count.
template <Backend B>
uint64_t SortRuns(B& ex, uint32_t i, typename B::Seg seg, uint64_t n,
                  uint64_t irun) {
  using Tuple = typename B::Tuple;
  const uint64_t t = sizeof(Tuple);
  const double sort_start_ms = ex.clock_ms(i);
  for (uint64_t start = 0; start < n; start += irun) {
    const uint64_t len = std::min<uint64_t>(irun, n - start);
    if constexpr (std::same_as<Tuple, SRef>) {
      ex.SortRefs(i, static_cast<SRef*>(ex.Write(i, seg, start * t, len * t)),
                  len, SortKey::kSptr);
    } else {
      std::vector<Tuple> buffer(len);
      std::vector<SRef> refs(len);
      for (uint64_t k = 0; k < len; ++k) {
        const void* src = ex.Read(i, seg, (start + k) * t, t);
        std::memcpy(&buffer[k], src, t);
        refs[k] = SRef{k, buffer[k].sptr};
      }
      ex.SortRefs(i, refs.data(), len, SortKey::kSptr);
      for (uint64_t k = 0; k < len; ++k) {
        void* dst = ex.Write(i, seg, (start + k) * t, t);
        std::memcpy(dst, &buffer[refs[k].r_id], t);
      }
      ex.ChargeCpu(i, static_cast<double>(len * t) * ex.mc().mt_pp_ms);
    }
  }
  const uint64_t runs = std::max<uint64_t>(1, CeilDiv(n, irun));
  if (ex.tracing()) {
    ex.Span(i, "sort-runs", "heap", sort_start_ms,
            {obs::Arg("runs", runs), obs::Arg("irun", irun)});
  }
  return runs;
}

/// K-way merges partition i's sorted runs with deleteMap/newMap area swaps
/// until at most NRUN_LAST remain, then merge-joins the final pass against
/// a single sequential sweep of S_i through the S-fetch protocol. `src`
/// and `dst` are in/out: area swaps retarget them. Returns the merge pass
/// count (final join pass included) in *npass.
template <Backend B>
Status MergeJoinRuns(B& ex, uint32_t i, typename B::Seg* src,
                     typename B::Seg* dst, uint64_t n,
                     const join::SortMergePlan& plan, uint64_t runs_in,
                     uint64_t* npass) {
  using Tuple = typename B::Tuple;
  const sim::MachineConfig& mc = ex.mc();
  const uint64_t t = sizeof(Tuple);
  uint64_t run_len = plan.irun;
  uint64_t runs = runs_in;
  uint64_t pass_count = 0;

  // Merges runs [first_run, first_run + n_runs) into *dst at out_start,
  // or, with `fetch` (the final pass), joins the merged stream instead.
  auto merge_group = [&](uint64_t first_run, uint64_t n_runs,
                         uint64_t out_start, SFetch<B>* fetch) {
    // Cursors are object indices into the source segment.
    std::vector<uint64_t> cur(n_runs), end(n_runs);
    MergeHeap heap(n_runs);
    for (uint64_t g = 0; g < n_runs; ++g) {
      cur[g] = (first_run + g) * run_len;
      end[g] = std::min(n, cur[g] + run_len);
      if (cur[g] < end[g]) {
        const auto* head =
            static_cast<const Tuple*>(ex.Read(i, *src, cur[g] * t, t));
        heap.Insert(MergeEntry{head->sptr, static_cast<uint32_t>(g)});
      }
    }
    uint64_t out = out_start;
    while (!heap.empty()) {
      const uint32_t g = heap.Min().run;
      // Re-touch the popped tuple's page: with scarce memory it may have
      // been evicted since its key entered the heap (the premature-
      // replacement anomaly of section 6.2). A copy, not a reference: its
      // loads then issue before the heap call below instead of after it.
      const Tuple popped = LoadTuple(ex, i, *src, cur[g] * t);
      ++cur[g];
      if (cur[g] < end[g]) {
        const auto* next =
            static_cast<const Tuple*>(ex.Read(i, *src, cur[g] * t, t));
        heap.DeleteInsert(MergeEntry{next->sptr, g});
      } else {
        heap.DeleteMin();
      }
      if (fetch != nullptr) {
        // Join instead of writing: the merged stream is in S-pointer
        // order, so S_i is read sequentially through the fetch protocol.
        const SRef& ref = RefOf(popped);
        fetch->Push(ref.r_id, ref.sptr);
      } else {
        std::memcpy(ex.Write(i, *dst, out * t, t), &popped, t);
        ex.ChargeCpu(i, static_cast<double>(t) * mc.mt_pp_ms);
      }
      ++out;
    }
    ex.ChargeCpu(i, mc.HeapCostMs(heap.cost()));
    return out;
  };

  while (runs > plan.nrun_last) {
    const double merge_start_ms = ex.clock_ms(i);
    const uint64_t groups = CeilDiv(runs, plan.nrun_abl);
    uint64_t out = 0;
    for (uint64_t g = 0; g < groups; ++g) {
      const uint64_t first_run = g * plan.nrun_abl;
      const uint64_t n_runs =
          std::min<uint64_t>(plan.nrun_abl, runs - first_run);
      out = merge_group(first_run, n_runs, out, /*fetch=*/nullptr);
    }
    ++pass_count;
    // Swap source and destination areas: the old source is destroyed and
    // a fresh area created (deleteMap + newMap per the paper).
    ex.DropSegment(i, *src, /*discard=*/true);
    const uint64_t pages = ex.SegPages(*src);
    MMJOIN_RETURN_NOT_OK(ex.DeleteSegment(*src));
    ex.ChargeSetup(i, mc.DeleteMapMs(pages) + mc.NewMapMs(pages));
    MMJOIN_ASSIGN_OR_RETURN(
        typename B::Seg fresh,
        ex.CreateSegment(
            "Swap" + std::to_string(i) + "p" + std::to_string(pass_count),
            i, std::max<uint64_t>(n, 1) * t));
    ex.AdviseSegment(i, fresh, AccessIntent::kPopulateWrite);
    *src = *dst;  // the merged output becomes the next source
    *dst = fresh;
    run_len *= plan.nrun_abl;
    runs = CeilDiv(runs, plan.nrun_abl);
    if (ex.tracing()) {
      ex.Span(i, "merge-pass " + std::to_string(pass_count), "heap",
              merge_start_ms,
              {obs::Arg("fan_in", plan.nrun_abl),
               obs::Arg("runs_left", runs)});
    }
  }

  // ---- Final pass: merge the remaining runs while scanning S_i. ----
  const double final_start_ms = ex.clock_ms(i);
  SFetch<B> fetch(ex, i);
  merge_group(0, runs, 0, &fetch);
  fetch.Finish();
  ++pass_count;
  *npass = pass_count;
  if (ex.tracing()) {
    ex.Span(i, "final-merge-join", "heap", final_start_ms,
            {obs::Arg("runs", runs)});
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Build + Probe (Grace / hybrid-hash bucket processing)
// ---------------------------------------------------------------------------

/// Build: reads a contiguous band of tuples and hashes their (id, sptr)
/// refs into TSIZE chains — the paper's in-memory hash-table build.
/// Identical references collide into the same chain.
template <Backend B>
void BuildChainTable(B& ex, uint32_t i, typename B::Seg seg, uint64_t base,
                     uint64_t count, uint64_t tsize,
                     std::vector<std::vector<SRef>>& table) {
  const uint64_t t = sizeof(typename B::Tuple);
  for (uint64_t k = 0; k < count; ++k) {
    const auto& tuple = LoadTuple(ex, i, seg, base + k * t);
    ex.ChargeCpu(i, ex.mc().hash_ms);
    const rel::SPtr sp = rel::SPtr::Unpack(tuple.sptr);
    table[sp.index % tsize].push_back(RefOf(tuple));
  }
}

/// Probe: processes the table in order; each chain's S objects fit in
/// memory, so every S object is read once per bucket. Simulator only.
template <Backend B>
  requires(!B::kBatchedProbe)
void ProbeChainTable(B& ex, uint32_t i,
                     const std::vector<std::vector<SRef>>& table) {
  for (const auto& chain : table) {
    for (const SRef& e : chain) {
      ex.RequestS(i, e.r_id, e.sptr);
    }
  }
}

/// Joins hybrid hash's resident bucket 0 of partition i — (r_id, sptr)
/// refs already in memory — and drains the S-fetch protocol. A batching
/// backend hands the contiguous array to the prefetch kernel as one batch;
/// the simulator hashes it into TSIZE chains first, so S_i's bucket-0
/// range is read in chain order, as the spilled buckets are.
template <Backend B>
void ProbeResident(B& ex, uint32_t i, const std::vector<SRef>& refs,
                   uint64_t tsize) {
  if constexpr (B::kBatchedProbe) {
    ex.RequestSBatch(i, refs.data(), refs.size());
  } else {
    std::vector<std::vector<SRef>> table(tsize);
    for (const SRef& e : refs) {
      table[rel::SPtr::Unpack(e.sptr).index % tsize].push_back(e);
    }
    ProbeChainTable(ex, i, table);
  }
  ex.FlushSRequests(i);
}

/// The per-bucket build+probe loop over RS_i's K contiguous bands, with a
/// streaming band hint: the bucket after this one is the next band to
/// stream in (kWillNeed). A processed band is not retired: RS_i is an
/// arena-owned temporary whose pages the real backend keeps. The TSIZE
/// chain table serves the simulator only: chains give its one-at-a-time
/// probe (and the paper's Sproc) bucket-local S locality. The batched
/// backend probes the RS band of SRefs in place, the prefetch pipeline's
/// look-ahead subsuming the grouping, so the table build (one hash + one
/// push per tuple) disappears from the real run. Empty buckets are
/// skipped.
template <Backend B>
void BuildProbeBuckets(B& ex, uint32_t i, typename B::Seg rs_seg,
                       const BucketLayout& layout, uint32_t k_buckets,
                       uint64_t tsize) {
  const uint64_t t = sizeof(typename B::Tuple);
  std::vector<std::vector<SRef>> table(B::kBatchedProbe ? 0 : tsize);
  for (uint32_t b = 0; b < k_buckets; ++b) {
    const uint64_t count = layout.Count(i, b);
    if (count == 0) continue;
    const uint64_t base = layout.Offset(i, b);
    const double bucket_start_ms = ex.clock_ms(i);
    if (b + 1 < k_buckets) {
      ex.AdviseRange(i, rs_seg, layout.Offset(i, b + 1),
                     layout.Count(i, b + 1) * t, AccessIntent::kWillNeed);
    }
    if constexpr (B::kBatchedProbe) {
      // The bucket's entries are contiguous tuples in RS_i: one ProbeRun
      // hands them to the prefetch pipeline — no table, no copies.
      ex.ProbeRun(i, rs_seg, base, count);
    } else {
      for (auto& chain : table) chain.clear();
      BuildChainTable(ex, i, rs_seg, base, count, tsize, table);
      ProbeChainTable(ex, i, table);
    }
    ex.FlushSRequests(i);
    if (ex.tracing()) {
      ex.Span(i, "bucket " + std::to_string(b), "bucket", bucket_start_ms,
              {obs::Arg("objects", count)});
    }
  }
}

// ---------------------------------------------------------------------------
// Index nested-loops (static per-partition B+-tree over R's join keys)
// ---------------------------------------------------------------------------

/// Byte layout of one partition's probe index: a flat, globally sorted
/// SRef leaf array (16 bytes per R reference into S_i) followed by the
/// internal key levels of an implicit static B+-tree — level l key j is
/// the first sptr of the j-th fanout-window of the level below, so a
/// descent needs one ≤-fanout window scan per level instead of a binary
/// search across the whole leaf array. The fanout matches mm::BTree's
/// node capacity; the tree is "implicit" because child positions are pure
/// arithmetic (window j of the level below), so no child offsets are
/// stored and the whole structure bulk-builds in one bottom-up sweep.
/// n <= fanout needs no internal levels; n == 0 is an empty index.
class IndexLayout {
 public:
  static constexpr uint64_t kFanout = 16;  // = mm::BTree::kMaxKeys

  struct Level {
    uint64_t count = 0;     ///< keys in this level
    uint64_t byte_off = 0;  ///< byte offset of the key array
  };

  void Plan(uint64_t n) {
    entries_ = n;
    levels_.clear();
    uint64_t below = n;
    uint64_t off = n * sizeof(SRef);
    while (below > kFanout) {
      const uint64_t count = CeilDiv(below, kFanout);
      levels_.push_back(Level{count, off});
      off += count * sizeof(uint64_t);
      below = count;
    }
    total_bytes_ = off;
  }

  uint64_t entries() const { return entries_; }
  uint64_t total_bytes() const { return total_bytes_; }
  /// Internal levels, bottom-up: levels()[0] indexes leaf windows,
  /// levels().back() is the root level (<= fanout keys).
  const std::vector<Level>& levels() const { return levels_; }

 private:
  uint64_t entries_ = 0;
  uint64_t total_bytes_ = 0;
  std::vector<Level> levels_;
};

/// Packs one monotone bucket band of RS_i into the index's leaf array:
/// reads each tuple's 16-byte (id, sptr) prefix, sorts the refs by
/// (sptr, r_id) through the backend's SortRefs — a total order, so the
/// leaf content is independent of arrival order and therefore of backend
/// and worker count — and writes the run at leaf offset `out` (entries).
/// Monotone buckets concatenate into a globally sorted leaf array, exactly
/// like the Grace bucket map guarantees for the partitioning drivers.
template <Backend B>
void SortIndexRun(B& ex, uint32_t i, typename B::Seg rs_seg, uint64_t base,
                  uint64_t count, typename B::Seg ix_seg, uint64_t out) {
  if (count == 0) return;
  const uint64_t t = sizeof(typename B::Tuple);
  std::vector<SRef> refs(count);
  for (uint64_t k = 0; k < count; ++k) {
    const void* src = ex.Read(i, rs_seg, base + k * t, sizeof(SRef));
    std::memcpy(&refs[k], src, sizeof(SRef));  // a tuple starts (id, sptr)
  }
  ex.SortRefs(i, refs.data(), count, SortKey::kSptrThenRid);
  void* dst = ex.Write(i, ix_seg, out * sizeof(SRef), count * sizeof(SRef));
  std::memcpy(dst, refs.data(), count * sizeof(SRef));
  ex.ChargeCpu(i, static_cast<double>(count * sizeof(SRef)) *
                      ex.mc().mt_pp_ms);
}

/// Derives the internal key levels from the packed leaf array, bottom-up:
/// one read of the first entry of every window below, one write per key.
template <Backend B>
void BuildIndexLevels(B& ex, uint32_t i, typename B::Seg ix_seg,
                      const IndexLayout& layout) {
  const auto& levels = layout.levels();
  for (size_t l = 0; l < levels.size(); ++l) {
    for (uint64_t j = 0; j < levels[l].count; ++j) {
      uint64_t key = 0;
      if (l == 0) {
        const void* src = ex.Read(
            i, ix_seg, j * IndexLayout::kFanout * sizeof(SRef), sizeof(SRef));
        SRef first;
        std::memcpy(&first, src, sizeof(SRef));
        key = first.sptr;
      } else {
        const void* src = ex.Read(
            i, ix_seg,
            levels[l - 1].byte_off +
                j * IndexLayout::kFanout * sizeof(uint64_t),
            sizeof(uint64_t));
        std::memcpy(&key, src, sizeof(uint64_t));
      }
      void* dst = ex.Write(i, ix_seg,
                           levels[l].byte_off + j * sizeof(uint64_t),
                           sizeof(uint64_t));
      std::memcpy(dst, &key, sizeof(uint64_t));
    }
    ex.ChargeCpu(i, static_cast<double>(levels[l].count * sizeof(uint64_t)) *
                        ex.mc().mt_pp_ms);
  }
}

/// Range probe of one S morsel: emits the leaf range [lower_bound(lo_key),
/// lower_bound(hi_key)) through `emit` in (sptr, r_id) order. One descent
/// (window scan per level, picking the last separator strictly below
/// lo_key) lands in the window that holds the lower bound: every earlier
/// window ends below lo_key. The leaves are read forward in page-bounded
/// chunks, skipping entries below lo_key, so the simulator faults only
/// pages of visited entries plus the stop entry's. Returns the number of
/// distinct sptr seen: morsels split S, so no run crosses a morsel.
template <Backend B, typename EmitFn>
uint64_t ProbeIndexRange(B& ex, uint32_t i, typename B::Seg ix_seg,
                         const IndexLayout& layout, uint64_t lo_key,
                         uint64_t hi_key, EmitFn&& emit) {
  const uint64_t n = layout.entries();
  if (n == 0 || lo_key >= hi_key) return 0;
  const auto& levels = layout.levels();
  const uint64_t f = IndexLayout::kFanout;

  // Descend: at the root the window is the whole level; below, the window
  // is the children of the chosen parent key.
  uint64_t pos = 0;
  for (size_t l = levels.size(); l-- > 0;) {
    const uint64_t begin = (l + 1 == levels.size()) ? 0 : pos * f;
    const uint64_t end = std::min(begin + f, levels[l].count);
    const void* src =
        ex.Read(i, ix_seg, levels[l].byte_off + begin * sizeof(uint64_t),
                (end - begin) * sizeof(uint64_t));
    const auto* keys = static_cast<const uint64_t*>(src);
    uint64_t c = 0;
    for (uint64_t k = 1; k < end - begin; ++k) {
      if (keys[k] < lo_key) c = k;
    }
    pos = begin + c;
  }

  // Scan forward, skipping the landing window's entries below lo_key.
  uint64_t p = levels.empty() ? 0 : pos * f;
  const uint64_t per_page = ex.mc().page_size / sizeof(SRef);
  uint64_t distinct = 0;
  uint64_t last = hi_key;  // no emitted entry equals it
  while (p < n) {
    const uint64_t stop = std::min(n, (p / per_page + 1) * per_page);
    const auto* chunk = static_cast<const SRef*>(
        ex.Read(i, ix_seg, p * sizeof(SRef), (stop - p) * sizeof(SRef)));
    for (uint64_t k = 0; k < stop - p; ++k) {
      const SRef& e = chunk[k];
      if (e.sptr < lo_key) continue;
      if (e.sptr >= hi_key) return distinct;
      if (e.sptr != last) {
        ++distinct;
        last = e.sptr;
      }
      emit(e);
    }
    p = stop;
  }
  return distinct;
}

}  // namespace mmjoin::exec::op

#endif  // MMJOIN_EXEC_OP_STAGES_H_
