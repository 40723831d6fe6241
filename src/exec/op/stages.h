// Reusable pass stages of the six join drivers, lifted out of
// exec/join_drivers.h so the drivers become thin compositions and new
// plan shapes (exec/op/operators.h) can reuse the same machinery.
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
//   ProbeStage       own-partition S-fetch staging (per tuple or batched)
//   SortRuns         sort IRUN-object runs of RS_i in place by S-pointer
//                    (through the backend's SortRefs: counted heapsort on
//                    the simulator, radix sort on the real backend)
//   MergeJoinRuns    k-way merge passes + final merge-join sweep of S_i
//   BuildChainTable  TSIZE-chain in-memory hash table build (Build)
//   ProbeChainTable  drain the chains through the S-fetch protocol (Probe)
//   BuildProbeBuckets per-bucket build+probe loop over RS_i bands
//   BucketLayout     contiguous bucket regions + one-writer bump cursors
//   CountBuckets     per-worker histogram of the RS bucket populations,
//                    checked against the counts metadata (PlanBucketedRs)
//   IndexLayout      implicit static B+-tree over a sorted SRef leaf array
//   SortIndexRun     per-bucket leaf packing of the index-NL driver
//                    (SortRefs by (sptr, r_id))
//   BuildIndexLevels derive the internal key levels bottom-up
//   ProbeIndex       exact-match descent + duplicate-run emission
#ifndef MMJOIN_EXEC_OP_STAGES_H_
#define MMJOIN_EXEC_OP_STAGES_H_

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "exec/backend.h"
#include "heap/merge_heap.h"
#include "join/grace.h"
#include "join/join_common.h"
#include "join/sort_merge.h"

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

/// Reads one R object through partition i's process.
template <Backend B>
rel::RObject ReadR(B& ex, uint32_t i, typename B::Seg seg, uint64_t offset) {
  rel::RObject obj;
  const void* src = ex.Read(i, seg, offset, sizeof(obj));
  std::memcpy(&obj, src, sizeof(obj));
  return obj;
}

/// Reads one R object in place (no copy) — batched-probe paths only, where
/// the backend is real and Read returns a stable mapped pointer. Touching
/// just (id, sptr) costs one cache line of the 128-byte object instead of
/// the two a full copy pulls.
template <Backend B>
const rel::RObject* ReadRPtr(B& ex, uint32_t i, typename B::Seg seg,
                             uint64_t offset) {
  return static_cast<const rel::RObject*>(
      ex.Read(i, seg, offset, sizeof(rel::RObject)));
}

/// S-ref scratch capacity of the batched probe paths: large enough that the
/// prefetch pipeline's fill/drain is amortized, small enough to stay in L2.
inline constexpr uint64_t kProbeScratch = 8192;

// ---------------------------------------------------------------------------
// Append / layout primitives
// ---------------------------------------------------------------------------

/// One append of `n` objects into a laid-out region: byte movement plus
/// the per-byte move charge. Partition passes call it with n = 1 per routed
/// object; sort-merge's real pass 1 moves a whole RP_{i,j} morsel as one
/// run. The caller owns cursor bookkeeping — one writer per target within
/// any pass/phase.
template <Backend B>
void AppendRun(B& ex, uint32_t writer, typename B::Seg seg, uint64_t byte_off,
               const rel::RObject* run, uint64_t n) {
  void* dst = ex.Write(writer, seg, byte_off, n * sizeof(rel::RObject));
  std::memcpy(dst, run, n * sizeof(rel::RObject));
  ex.ChargeCpu(writer, static_cast<double>(n * sizeof(rel::RObject)) *
                           ex.mc().mt_pp_ms);
}

/// Contiguous bucket regions of each RS_i plus one bump cursor per region
/// (K = 1 degenerates to the sort-merge flat RS_i layout). Pure
/// bookkeeping: byte movement and cost charging stay with AppendRun. The
/// cursors need no synchronization — within any pass/phase exactly one
/// worker writes a given target, and the backend barrier between phases
/// publishes them.
class BucketLayout {
 public:
  /// `counts[i][b]` = objects bound for bucket b of RS_i.
  void Init(const std::vector<std::vector<uint64_t>>& counts) {
    const size_t d = counts.size();
    const size_t k = d ? counts[0].size() : 0;
    offset_.assign(d, std::vector<uint64_t>(k + 1, 0));
    cursor_.assign(d, std::vector<uint64_t>(k, 0));
    for (size_t i = 0; i < d; ++i) {
      uint64_t total = 0;
      for (size_t b = 0; b < k; ++b) {
        offset_[i][b] = total * sizeof(rel::RObject);
        total += counts[i][b];
      }
      offset_[i][k] = total * sizeof(rel::RObject);
    }
  }

  /// Byte offset of bucket b within RS_i.
  uint64_t Offset(uint32_t i, uint32_t b) const { return offset_[i][b]; }
  /// Objects bound for bucket b of RS_i.
  uint64_t Count(uint32_t i, uint32_t b) const {
    return (offset_[i][b + 1] - offset_[i][b]) / sizeof(rel::RObject);
  }
  /// Total objects across RS_i's buckets.
  uint64_t Total(uint32_t i) const {
    const size_t k = offset_[i].size() - 1;
    return offset_[i][k] / sizeof(rel::RObject);
  }
  /// Claims `n` consecutive slots of bucket b; returns the byte offset of
  /// the first within RS_i.
  uint64_t Claim(uint32_t i, uint32_t b, uint64_t n) {
    const uint64_t slot = cursor_[i][b];
    cursor_[i][b] += n;
    assert(slot + n <= Count(i, b));
    return offset_[i][b] + slot * sizeof(rel::RObject);
  }

 private:
  std::vector<std::vector<uint64_t>> offset_;  // [i][b] bytes, [i][k] end
  std::vector<std::vector<uint64_t>> cursor_;  // [i][b] objects claimed
};

/// Exact populations of the bucketed RS layout. `buckets[j][b]` counts
/// the objects bound for bucket b of RS_j; `resident[i]` the own-partition
/// bucket-0 objects hybrid hash keeps in memory instead (all zero without
/// the diversion); `routed[i][j]` the R_i objects pointing into S_j, which
/// must equal the workload's |R_{i,j}| (SubCount) metadata.
struct BucketHistogram {
  std::vector<std::vector<uint64_t>> buckets;
  std::vector<uint64_t> resident;
  std::vector<std::vector<uint64_t>> routed;
};

/// Counts the BucketHistogram from the raw R partitions as a parallel
/// pre-pass: independent morsels of every R_i add into a per-worker-slot
/// histogram, and the slots are reduced in slot order after the barrier.
/// Metadata, not charged: the simulator's ForEachPartitionTuples is a
/// serial uncharged loop with one slot. Each destination's bucket divisor
/// is a GraceBucketMap, the reciprocal multiply passes 0 and 1 use. With
/// `divert_resident` (hybrid hash), own-partition bucket-0 objects count
/// in `resident` instead of bucket 0. An object whose pointer names no
/// partition is counted in no cell, so the totals cannot match.
template <Backend B>
BucketHistogram CountBuckets(B& ex, uint32_t k_buckets,
                             bool divert_resident) {
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
          if (divert_resident && b == 0 && sp.partition == i) b = k_buckets;
          ++hist[sp.partition * cols + b];
          ++routed[sp.partition];
        }
      },
      /*independent=*/true);

  BucketHistogram h;
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
/// off the largest RS_i, and the bucket layout.
struct BucketedRs {
  std::vector<uint64_t> objects;  // |RS_i|
  join::GracePlan plan;
  BucketLayout layout;
};

/// Plans BucketedRs. With `resident` non-null (hybrid hash), own bucket-0
/// objects stay out of the layout and resident[i] receives their count.
/// Returns Corruption, before any RP or RS write, when R disagrees with
/// the workload's counts metadata: the RP and RS bands are sized from the
/// metadata and filled from R, so a mismatch would overrun a band. Every
/// counted object lands in one routed cell and one bucket (or resident)
/// cell of the same RS_j, so routed == SubCount also pins every RS_j total.
template <Backend B>
StatusOr<BucketedRs> PlanBucketedRs(B& ex, const join::JoinParams& params,
                                    std::vector<uint64_t>* resident) {
  const uint32_t d = ex.D();
  BucketedRs rs;
  rs.objects = RsObjects(ex);
  const uint64_t max_rs =
      *std::max_element(rs.objects.begin(), rs.objects.end());
  rs.plan = join::PlanGrace(params.m_rproc_bytes, max_rs, params);
  BucketHistogram h = CountBuckets(ex, rs.plan.k_buckets, resident != nullptr);
  for (uint32_t i = 0; i < d; ++i) {
    for (uint32_t j = 0; j < d; ++j) {
      if (h.routed[i][j] != ex.SubCount(i, j)) {
        return Status::Corruption(
            "R_" + std::to_string(i) + " holds " +
            std::to_string(h.routed[i][j]) + " pointers into S_" +
            std::to_string(j) + ", its counts metadata says " +
            std::to_string(ex.SubCount(i, j)));
      }
    }
  }
  rs.layout.Init(h.buckets);
  for (uint32_t j = 0; j < d; ++j) {
    assert(rs.layout.Total(j) + h.resident[j] == rs.objects[j]);
  }
  if (resident != nullptr) *resident = std::move(h.resident);
  return rs;
}

// ---------------------------------------------------------------------------
// Partition (pass 0)
// ---------------------------------------------------------------------------

/// Own-partition S-fetch staging used by the nested-loops Partition stage:
/// refs stage into a scratch that flushes through the prefetch kernel
/// (batched backend) or probe S one at a time (simulator). Finish() drains
/// the scratch and then the S-fetch protocol at the end of the morsel.
template <Backend B>
class ProbeStage {
 public:
  ProbeStage(B& ex, uint32_t i, uint64_t expect) : ex_(ex), i_(i) {
    if constexpr (B::kBatchedProbe) {
      own_.reserve(std::min(expect, kProbeScratch));
    }
  }
  void operator()(const rel::RObject& obj, rel::SPtr) {
    if constexpr (B::kBatchedProbe) {
      own_.push_back(SRef{obj.id, obj.sptr});
      if (own_.size() == kProbeScratch) {
        ex_.RequestSBatch(i_, own_.data(), own_.size());
        own_.clear();
      }
    } else {
      ex_.RequestS(i_, obj.id, obj.sptr);
    }
  }
  void Finish() {
    if constexpr (B::kBatchedProbe) {
      if (!own_.empty()) ex_.RequestSBatch(i_, own_.data(), own_.size());
    }
    ex_.FlushSRequests(i_);
  }

 private:
  B& ex_;
  uint32_t i_;
  std::vector<SRef> own_;
};

/// Pass 0 of every driver but MPSM: morsel-scan R_i (chained — morsels
/// share the partition's output cursors), append every foreign object to
/// RP_{i, sp.partition}, and route every own-partition object to
/// `own(obj, sp)`, the per-morsel handler `make_own(i, begin, end)`
/// returns. The handler may expose Finish(), run at the end of the morsel.
/// The batched backend reads R in place; the simulator copies each object
/// and charges the map_ms of mapping its join attribute to a target.
template <Backend B, typename OwnFactory>
void Partition(B& ex, OwnFactory&& make_own, bool sync) {
  ex.ForEachPartitionTuples(
      RCounts(ex),
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        auto own = make_own(i, begin, end);
        auto route = [&](const rel::RObject& obj) {
          const rel::SPtr sp = rel::SPtr::Unpack(obj.sptr);
          if (sp.partition == i) {
            own(obj, sp);
          } else {
            ex.AppendToRp(i, sp.partition, obj);
          }
        };
        const typename B::Seg r_seg = ex.r_seg(i);
        for (uint64_t k = begin; k < end; ++k) {
          const uint64_t off = rel::Workload::ROffset(k);
          if constexpr (B::kBatchedProbe) {
            route(*ReadRPtr(ex, i, r_seg, off));
          } else {
            const rel::RObject obj = ReadR(ex, i, r_seg, off);
            ex.ChargeCpu(i, ex.mc().map_ms);  // map the join attribute
            route(obj);
          }
        }
        if constexpr (requires { own.Finish(); }) own.Finish();
      },
      /*independent=*/false);
  if (sync) ex.SyncClocks();
  ex.MarkPass("pass0");
}

// ---------------------------------------------------------------------------
// PhasedRepartition (pass 1 of sort-merge / Grace / hybrid hash / index-NL)
// ---------------------------------------------------------------------------

/// D-1 staggered phases moving each RP_{i,j} into RS_j (j = the phase-t
/// partner of i). Chained morsels share RS_j's cursors; the per-partition
/// epilogue — publishing RS_j's pages back to their owner's disk image and
/// the phase span — runs on the final morsel (end == count; an empty
/// partition still gets one [0,0) morsel). `route(i, j, base, begin, end)`
/// appends the morsel's tuples to RS_j.
template <Backend B, typename RouteFn>
void PhasedRepartition(B& ex, const std::vector<typename B::Seg>& rs_segs,
                       RouteFn&& route, bool sync) {
  const uint32_t d = ex.D();
  for (uint32_t t = 1; t < d; ++t) {
    const std::vector<uint64_t> phase_counts = PhaseCounts(ex, t);
    ex.ForEachPartitionTuples(
        phase_counts,
        [&](uint32_t i, uint64_t begin, uint64_t end) {
          const uint32_t j = join::PhaseOffset(i, t, d);
          const uint64_t base = ex.RpSubOffset(i, j);
          const double phase_start_ms = ex.clock_ms(i);
          route(i, j, base, begin, end);
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
  }
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
/// diversion.
template <Backend B>
Status BucketRepartition(B& ex, const std::vector<typename B::Seg>& rs_segs,
                         BucketLayout& layout, uint32_t k_buckets,
                         std::vector<std::vector<SRef>>* resident, bool sync) {
  const sim::MachineConfig& mc = ex.mc();
  const uint64_t r = sizeof(rel::RObject);
  auto bucket_append = [&](uint32_t writer, uint32_t target, uint32_t b,
                           const rel::RObject& obj) {
    AppendRun(ex, writer, rs_segs[target], layout.Claim(target, b, 1), &obj,
              1);
  };

  // ---- Pass 0: partition R_i; own-partition objects hash into RS_i. ----
  Partition(
      ex,
      [&](uint32_t i, uint64_t, uint64_t) {
        return [&, i, bmap = join::GraceBucketMap(ex.s_count(i), k_buckets)](
                   const rel::RObject& obj, rel::SPtr sp) {
          ex.ChargeCpu(i, mc.hash_ms);
          const uint32_t b = bmap.Of(sp.index);
          if (resident != nullptr && b == 0) {
            (*resident)[i].push_back(SRef{obj.id, obj.sptr});
            ex.ChargeCpu(i, static_cast<double>(r) * mc.mt_pp_ms);
          } else {
            bucket_append(i, i, b, obj);
          }
        };
      },
      sync);

  // ---- Pass 1: staggered phases hash RP_{i,j} into RS_j's buckets. ----
  PhasedRepartition(
      ex, rs_segs,
      [&](uint32_t i, uint32_t j, uint64_t base, uint64_t begin,
          uint64_t end) {
        // Every object in RP_{i,j} points into S_j, so the bucket divisor
        // |S_j| is morsel-constant.
        const join::GraceBucketMap bmap(ex.s_count(j), k_buckets);
        const typename B::Seg rp_seg = ex.rp_seg(i);
        for (uint64_t k = begin; k < end; ++k) {
          if constexpr (B::kBatchedProbe) {
            const rel::RObject* obj = ReadRPtr(ex, i, rp_seg, base + k * r);
            bucket_append(i, j, bmap.Of(rel::SPtr::Unpack(obj->sptr).index),
                          *obj);
          } else {
            const rel::RObject obj = ReadR(ex, i, rp_seg, base + k * r);
            ex.ChargeCpu(i, mc.hash_ms);
            bucket_append(i, j, bmap.Of(rel::SPtr::Unpack(obj.sptr).index),
                          obj);
          }
        }
      },
      sync);

  MMJOIN_RETURN_NOT_OK(DropRpSegments(ex));
  ex.MarkPass("pass1");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ProbePhases (pass 1 of nested loops)
// ---------------------------------------------------------------------------

/// D-1 staggered probe-only phases over the RP_{i,j}: ReadR + RequestS
/// touch no shared output target (the real backend tallies per worker), so
/// morsels are independent and one hot partner — a Zipf-skewed RP_{i,j} —
/// spreads across every worker instead of serializing the phase. Each
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
                     ex.RpSubCount(i, j) * sizeof(rel::RObject),
                     AccessIntent::kWillNeed);
    }
    ex.ForEachPartitionTuples(
        PhaseCounts(ex, t),
        [&](uint32_t i, uint64_t begin, uint64_t end) {
          const uint32_t j = join::PhaseOffset(i, t, d);
          const uint64_t base = ex.RpSubOffset(i, j);
          const double phase_start_ms = ex.clock_ms(i);
          if constexpr (B::kBatchedProbe) {
            // A phase only probes: hand the contiguous band slice to the
            // prefetch kernel in one run.
            ex.ProbeRun(i, ex.rp_seg(i),
                        base + begin * sizeof(rel::RObject), end - begin);
          } else {
            for (uint64_t k = begin; k < end; ++k) {
              const rel::RObject obj = ReadR(
                  ex, i, ex.rp_seg(i), base + k * sizeof(rel::RObject));
              ex.RequestS(i, obj.id, obj.sptr);
            }
          }
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

/// Sorts one run of `len` objects at object offset `start` of `seg` in
/// place, by S-pointer: read the run in, sort (run position, sptr) refs
/// through the backend's SortRefs — the position rides in r_id — then
/// permute the objects (one MTpp move per object) and write back. The
/// single-run body of SortRuns, exposed so MPSM's pass 1 can sort
/// individual node-band runs as independent morsels.
template <Backend B>
void SortRunInPlace(B& ex, uint32_t i, typename B::Seg seg, uint64_t start,
                    uint64_t len) {
  const uint64_t r = sizeof(rel::RObject);
  std::vector<rel::RObject> buffer(len);
  std::vector<SRef> refs(len);
  for (uint64_t k = 0; k < len; ++k) {
    const void* src = ex.Read(i, seg, (start + k) * r, r);
    std::memcpy(&buffer[k], src, r);
    refs[k] = SRef{k, buffer[k].sptr};
  }
  ex.SortRefs(i, refs.data(), len, SortKey::kSptr);
  // Move the objects into sorted order (one MTpp move per object).
  for (uint64_t k = 0; k < len; ++k) {
    void* dst = ex.Write(i, seg, (start + k) * r, r);
    std::memcpy(dst, &buffer[refs[k].r_id], r);
  }
  ex.ChargeCpu(i, static_cast<double>(len * r) * ex.mc().mt_pp_ms);
}

/// Sorts RS_i into IRUN-object runs in place (SortRunInPlace per run).
/// Returns the run count.
template <Backend B>
uint64_t SortRuns(B& ex, uint32_t i, typename B::Seg seg, uint64_t n,
                  uint64_t irun) {
  const double sort_start_ms = ex.clock_ms(i);
  for (uint64_t start = 0; start < n; start += irun) {
    SortRunInPlace(ex, i, seg, start, std::min<uint64_t>(irun, n - start));
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
  const sim::MachineConfig& mc = ex.mc();
  const uint64_t r = sizeof(rel::RObject);
  uint64_t run_len = plan.irun;
  uint64_t runs = runs_in;
  uint64_t pass_count = 0;

  auto merge_group = [&](uint64_t first_run, uint64_t n_runs,
                         uint64_t out_start, bool last_pass) {
    // Merge-side fetch staging (batched backend, final pass only): the
    // merged stream arrives one object at a time off the heap, so refs
    // collect into a scratch that flushes through the prefetch kernel.
    std::vector<SRef> fetch;
    if (B::kBatchedProbe && last_pass) fetch.reserve(kProbeScratch);
    // Cursors are object indices into the source segment.
    std::vector<uint64_t> cur(n_runs), end(n_runs);
    MergeHeap heap(n_runs);
    for (uint64_t g = 0; g < n_runs; ++g) {
      cur[g] = (first_run + g) * run_len;
      end[g] = std::min(n, cur[g] + run_len);
      if (cur[g] < end[g]) {
        const auto* obj = static_cast<const rel::RObject*>(
            ex.Read(i, *src, cur[g] * r, r));
        heap.Insert(MergeEntry{obj->sptr, static_cast<uint32_t>(g)});
      }
    }
    uint64_t out = out_start;
    while (!heap.empty()) {
      const uint32_t g = heap.Min().run;
      // Re-touch the popped object's page: with scarce memory it may have
      // been evicted since its key entered the heap (the premature-
      // replacement anomaly of section 6.2).
      rel::RObject obj;
      const void* src_ptr = ex.Read(i, *src, cur[g] * r, r);
      std::memcpy(&obj, src_ptr, r);
      ++cur[g];
      if (cur[g] < end[g]) {
        const auto* next = static_cast<const rel::RObject*>(
            ex.Read(i, *src, cur[g] * r, r));
        heap.DeleteInsert(MergeEntry{next->sptr, g});
      } else {
        heap.DeleteMin();
      }
      if (last_pass) {
        // Join instead of writing: the merged stream is in S-pointer
        // order, so S_i is read sequentially through the fetch protocol.
        if constexpr (B::kBatchedProbe) {
          fetch.push_back(SRef{obj.id, obj.sptr});
          if (fetch.size() == kProbeScratch) {
            ex.RequestSBatch(i, fetch.data(), fetch.size());
            fetch.clear();
          }
        } else {
          ex.RequestS(i, obj.id, obj.sptr);
        }
      } else {
        void* dst_ptr = ex.Write(i, *dst, out * r, r);
        std::memcpy(dst_ptr, &obj, r);
        ex.ChargeCpu(i, static_cast<double>(r) * mc.mt_pp_ms);
      }
      ++out;
    }
    if constexpr (B::kBatchedProbe) {
      if (!fetch.empty()) ex.RequestSBatch(i, fetch.data(), fetch.size());
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
      out = merge_group(first_run, n_runs, out, /*last_pass=*/false);
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
            i, std::max<uint64_t>(n, 1) * r));
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
  merge_group(0, runs, 0, /*last_pass=*/true);
  ex.FlushSRequests(i);
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

/// Build: reads a contiguous band of RObjects and hashes their (id, sptr)
/// refs into TSIZE chains — the paper's in-memory hash-table build.
/// Identical references collide into the same chain.
template <Backend B>
void BuildChainTable(B& ex, uint32_t i, typename B::Seg seg, uint64_t base,
                     uint64_t count, uint64_t tsize,
                     std::vector<std::vector<SRef>>& table) {
  const uint64_t r = sizeof(rel::RObject);
  for (uint64_t k = 0; k < count; ++k) {
    rel::RObject obj;
    const void* src = ex.Read(i, seg, base + k * r, r);
    std::memcpy(&obj, src, r);
    ex.ChargeCpu(i, ex.mc().hash_ms);
    const rel::SPtr sp = rel::SPtr::Unpack(obj.sptr);
    table[sp.index % tsize].push_back(SRef{obj.id, obj.sptr});
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

/// The per-bucket build+probe loop over RS_i's K contiguous bands, with a
/// streaming band hint: the bucket after this one is the next band to
/// stream in (kWillNeed). A processed band is not retired: RS_i is an
/// arena-owned temporary whose pages the real backend keeps. The chain
/// table serves the simulator only — the batched backend probes the RS
/// band in place, the prefetch pipeline's look-ahead subsuming the
/// grouping the chains provide. Empty buckets are skipped.
template <Backend B>
void BuildProbeBuckets(B& ex, uint32_t i, typename B::Seg rs_seg,
                       const BucketLayout& layout, uint32_t k_buckets,
                       uint64_t tsize, std::vector<std::vector<SRef>>& table) {
  const uint64_t r = sizeof(rel::RObject);
  for (uint32_t b = 0; b < k_buckets; ++b) {
    const uint64_t count = layout.Count(i, b);
    if (count == 0) continue;
    for (auto& chain : table) chain.clear();
    const uint64_t base = layout.Offset(i, b);
    const double bucket_start_ms = ex.clock_ms(i);
    if (b + 1 < k_buckets) {
      ex.AdviseRange(i, rs_seg, layout.Offset(i, b + 1),
                     layout.Count(i, b + 1) * r, AccessIntent::kWillNeed);
    }
    if constexpr (B::kBatchedProbe) {
      // The bucket's entries are contiguous RObjects in RS_i: one
      // ProbeRun stages their 16-byte (id, sptr) prefixes through the
      // prefetch pipeline — no table, no copies.
      ex.ProbeRun(i, rs_seg, base, count);
    } else {
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
/// reads each object's 16-byte (id, sptr) prefix, sorts the refs by
/// (sptr, r_id) through the backend's SortRefs — a total order, so the
/// leaf content is independent of arrival order and therefore of backend
/// and schedule — and writes the run at leaf offset `out` (entries). Monotone buckets concatenate into
/// a globally sorted leaf array, exactly like the Grace bucket map
/// guarantees for the partitioning drivers.
template <Backend B>
void SortIndexRun(B& ex, uint32_t i, typename B::Seg rs_seg, uint64_t base,
                  uint64_t count, typename B::Seg ix_seg, uint64_t out) {
  if (count == 0) return;
  const uint64_t r = sizeof(rel::RObject);
  std::vector<SRef> refs(count);
  for (uint64_t k = 0; k < count; ++k) {
    const void* src = ex.Read(i, rs_seg, base + k * r, sizeof(SRef));
    std::memcpy(&refs[k], src, sizeof(SRef));  // RObject starts (id, sptr)
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

/// Exact-match probe: descends the key levels (window scan per level,
/// picking the last separator <= target), lower-bounds the leaf window,
/// then walks BACK across window boundaries while the previous entry
/// still equals the target — duplicate runs may span windows, and the
/// separator of the landing window equals the target in exactly that
/// case. Emits every matching SRef through `emit` in (sptr, r_id) order;
/// returns the match count.
template <Backend B, typename EmitFn>
uint64_t ProbeIndex(B& ex, uint32_t i, typename B::Seg ix_seg,
                    const IndexLayout& layout, uint64_t target,
                    EmitFn&& emit) {
  const uint64_t n = layout.entries();
  if (n == 0) return 0;
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
      if (keys[k] <= target) c = k;
    }
    pos = begin + c;
  }

  // Leaf window lower bound.
  const uint64_t lo = levels.empty() ? 0 : pos * f;
  const uint64_t hi = std::min(lo + f, n);
  const void* src = ex.Read(i, ix_seg, lo * sizeof(SRef),
                            (hi - lo) * sizeof(SRef));
  const auto* window = static_cast<const SRef*>(src);
  uint64_t p = lo;
  while (p < hi && window[p - lo].sptr < target) ++p;
  if (p == hi || window[p - lo].sptr != target) return 0;

  // Walk back over a duplicate run that spans into earlier windows.
  while (p > 0) {
    const void* prev_src =
        ex.Read(i, ix_seg, (p - 1) * sizeof(SRef), sizeof(SRef));
    SRef prev;
    std::memcpy(&prev, prev_src, sizeof(SRef));
    if (prev.sptr != target) break;
    --p;
  }

  // Emit forward while the key still matches.
  uint64_t matches = 0;
  while (p < n) {
    const void* e_src = ex.Read(i, ix_seg, p * sizeof(SRef), sizeof(SRef));
    SRef e;
    std::memcpy(&e, e_src, sizeof(SRef));
    if (e.sptr != target) break;
    emit(e);
    ++matches;
    ++p;
  }
  return matches;
}

}  // namespace mmjoin::exec::op

#endif  // MMJOIN_EXEC_OP_STAGES_H_
