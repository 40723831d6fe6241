// The execution-backend seam: one algorithm description, two runtimes.
//
// The paper's central claim is that a single description of each parallel
// pointer-based join (partition R by its S-pointer target, then nested
// loops / sort-merge / Grace / hybrid-hash over the partitions) runs
// unchanged in a memory-mapped environment. This header makes that claim
// structural: the six drivers in exec/join_drivers.h are written once,
// as templates over a Backend, and instantiated over
//
//   * join::JoinExecution — the deterministic costed simulator (sim::SimEnv
//     processes, virtual clocks, G-buffered S fetches, paging model), and
//   * exec::RealBackend   — a real runtime over mmap(2) segments with
//     worker threads stealing morsel chains (bounded by the hardware),
//     wall-clock timing and genuine implicit I/O.
//
// A Backend owns the partition "processes" and everything whose meaning
// differs between the two worlds: byte access (page-cache touch vs direct
// mapped pointer), cost charging (virtual clock vs no-op), the S-object
// fetch protocol (G-buffer exchange vs immediate dereference), barriers
// (clock sync vs thread join), span/metric emission (simulated vs wall
// time), sorting (the counted heapsort vs a radix sort), and the width of
// the tuples the join temporaries hold (B::Tuple: the whole 128-byte
// rel::RObject on the simulator, whose cost model moves objects; the
// 16-byte SRef on the real backend, since after R is first read the join
// needs only (r_id, sptr)). The drivers own everything that *is* the
// algorithm: pass structure, staggered phase schedule, RP/RS layout, what
// is sorted by which key, hashing and bucket logic.
#ifndef MMJOIN_EXEC_BACKEND_H_
#define MMJOIN_EXEC_BACKEND_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/kernels.h"
#include "mmap/segment.h"
#include "obs/trace.h"
#include "rel/relation.h"
#include "sim/machine_config.h"
#include "util/status.h"

namespace mmjoin::exec {

/// Paging intents are shared with the mmap layer (mmap/segment.h) — the
/// simulator ignores them, the real backend maps them onto madvise(2).
using AccessIntent = mm::AccessIntent;

/// Compile-time interface of an execution backend. `Seg` is the backend's
/// segment handle (sim::SegId for the simulator, a mapping handle for the
/// real runtime); partition index `i` names the worker/process the
/// operation is performed (and accounted) on.
template <typename B>
concept Backend = requires(B b, const B cb, uint32_t i, uint32_t j,
                           typename B::Seg seg, uint64_t off, uint64_t len,
                           const typename B::Tuple& tuple, double ms,
                           const std::string& label,
                           std::vector<obs::TraceArg> args,
                           const std::vector<uint64_t>& counts,
                           void (*fn)(uint32_t),
                           void (*range_fn)(uint32_t, uint64_t, uint64_t),
                           SRef* sort_refs, SortKey key,
                           AccessIntent intent) {
  typename B::Seg;
  /// What RP, RS and the sort-merge runs hold: rel::RObject or SRef. Both
  /// start with (id, sptr); RefOf reads that prefix.
  typename B::Tuple;
  requires std::same_as<typename B::Tuple, rel::RObject> ||
               std::same_as<typename B::Tuple, SRef>;

  // ---- shape & parameters ------------------------------------------------
  { cb.D() } -> std::convertible_to<uint32_t>;
  { cb.mc() } -> std::convertible_to<const sim::MachineConfig&>;

  // ---- workload view -----------------------------------------------------
  { cb.r_seg(i) } -> std::convertible_to<typename B::Seg>;
  { cb.s_seg(i) } -> std::convertible_to<typename B::Seg>;
  { cb.r_count(i) } -> std::convertible_to<uint64_t>;
  { cb.s_count(i) } -> std::convertible_to<uint64_t>;
  /// |R_{i,j}|: R_i objects whose pointer targets S_j.
  { cb.SubCount(i, j) } -> std::convertible_to<uint64_t>;
  /// Uncharged metadata scan of R_i (planning only, never the join path).
  { cb.RawR(i) } -> std::convertible_to<const rel::RObject*>;
  /// The workload's memo of bucket populations per K (rel/bucket_memo.h).
  { cb.bucket_memo() } -> std::same_as<rel::BucketMemo&>;

  // ---- segments ----------------------------------------------------------
  { b.CreateSegment(label, i, len) } -> std::same_as<StatusOr<typename B::Seg>>;
  { b.DeleteSegment(seg) } -> std::same_as<Status>;
  { b.SegPages(seg) } -> std::convertible_to<uint64_t>;

  // ---- the RP temporaries (pass-0/1 sub-partitioning) --------------------
  { b.CreateRpSegments() } -> std::same_as<Status>;
  { cb.rp_seg(i) } -> std::convertible_to<typename B::Seg>;
  { cb.RpSubOffset(i, j) } -> std::convertible_to<uint64_t>;
  { cb.RpSubCount(i, j) } -> std::convertible_to<uint64_t>;
  { cb.RpPages(i) } -> std::convertible_to<uint64_t>;
  /// One cursor claim + one tuple copy: partition passes append each
  /// routed tuple straight to its band (DESIGN.md §7.3). False, with
  /// nothing written, when RP_{i,j} already holds its |R_{i,j}| tuples.
  { b.AppendToRp(i, j, tuple) } -> std::same_as<bool>;
  /// True when every RP_{i,j} holds exactly its |R_{i,j}| tuples.
  { cb.RpFilled() } -> std::same_as<bool>;

  // ---- per-partition process operations ----------------------------------
  { b.Read(i, seg, off, len) } -> std::convertible_to<const void*>;
  { b.Write(i, seg, off, len) } -> std::convertible_to<void*>;
  { b.ChargeCpu(i, ms) };
  { b.ChargeSetup(i, ms) };
  { b.DropSegment(i, seg, true) };
  { b.FlushSRequests(i) };

  // ---- S-pointer dereference (exec/kernels.h) ----------------------------
  // ProbeRun requests the S objects behind a contiguous run of `len`
  // tuples (B::Tuple) at `off` inside `seg`. kBatchedProbe is a fixed
  // property of the backend, and the drivers do not branch on it to probe:
  // per-ref requests go through op::SFetch and R reads through op::LoadR
  // (exec/op/stages.h), which hide it. The simulator probes one tuple at
  // a time through RequestS: its costed G-buffer fetch protocol and
  // page-cache touch order are the semantics. The real backend always
  // batches: RequestSBatch dereferences an SRef array through the
  // prefetch pipeline, and its ProbeRun hands an SRef band to the same
  // kernel in place. Batches are order-free: output tallies are
  // commutative sums.
  { B::kBatchedProbe } -> std::convertible_to<bool>;
  { b.ProbeRun(i, seg, off, len) };

  // ---- sorting (DESIGN.md §7.9) --------------------------------------------
  // SortRefs sorts sort_refs[0..len) in place by `key`, on behalf of
  // partition i. The simulator heapsorts and charges the counted compares,
  // swaps and transfers — the paper's §6.1 cost model; the real backend
  // radix-sorts (exec::RadixSortRefs) and charges nothing. Ties under
  // kSptr may land in either order: every consumer is order-free within
  // one S-pointer.
  { b.SortRefs(i, sort_refs, len, key) };

  // ---- paging policy ------------------------------------------------------
  // Declarative hints about the imminent access pattern of a (range of a)
  // segment. No-ops on the simulator (its paging model already knows the
  // access pattern) and under paging=none; otherwise the real backend maps
  // them onto madvise(2) per DESIGN.md §7.2. Never affects results — only
  // which pages are resident when.
  { b.AdviseSegment(i, seg, intent) };
  { b.AdviseRange(i, seg, off, len, intent) };

  // ---- execution structure -----------------------------------------------
  // Runs fn(i) for every partition: serially in workload order on the
  // simulator (determinism), on bounded worker threads for real runs.
  // Returns only when every partition finished — a real barrier. The
  // costed overload passes per-partition work estimates (tuples) so the
  // real backend's scheduler can seed its deques longest-first.
  { b.ForEachPartition(fn) };
  { b.ForEachPartition(counts, fn) };
  // Tuple-range flavor: range_fn(i, begin, end) over morsel-sized ranges
  // covering [0, counts[i]). The final argument declares the ranges
  // independent (no shared output target, may run concurrently) or chained
  // (in order, one owner at a time). The simulator always runs one full-
  // range call per partition, serially — bit-identical to ForEachPartition.
  { b.ForEachPartitionTuples(counts, range_fn, true) };
  { b.SyncClocks() };
  { b.ChargeSetupAll(ms) };
  { b.MarkPass(label) };

  // ---- worker identity ----------------------------------------------------
  // WorkerSlots() bounds the per-worker state space a caller must allocate
  // (1 on the serial simulator); WorkerSlot() names the executing worker's
  // slot inside a ForEachPartition* body (0 outside one, and always 0 on
  // the simulator). Operators that accumulate across morsels key their
  // state by this slot and merge commutatively after the pass barrier, so
  // results stay independent of how morsels were dealt (DESIGN.md §7.5).
  { cb.WorkerSlots() } -> std::convertible_to<uint32_t>;
  { cb.WorkerSlot() } -> std::convertible_to<uint32_t>;

  // ---- observability -----------------------------------------------------
  { cb.tracing() } -> std::convertible_to<bool>;
  { b.clock_ms(i) } -> std::convertible_to<double>;
  { b.Span(i, label, label, ms, args) };
} && ((B::kBatchedProbe &&
       requires(B b, uint32_t i, uint64_t len, const SRef* refs) {
         { b.RequestSBatch(i, refs, len) };
       }) ||
      (!B::kBatchedProbe && requires(B b, uint32_t i, uint64_t off,
                                     uint64_t len) {
        { b.RequestS(i, off, len) };  // (r_id, packed sptr)
      }));

/// The (r_id, sptr) prefix of a temporary's tuple, whichever the
/// backend's width.
inline SRef RefOf(const rel::RObject& obj) { return SRef{obj.id, obj.sptr}; }
inline const SRef& RefOf(const SRef& ref) { return ref; }

/// Exact layout of the RP_i temporaries shared by both backends: RP_i holds
/// one contiguous sub-partition RP_{i,j} per remote target j (j != i),
/// sized from the workload's |R_{i,j}| counts, with a bump cursor per
/// sub-partition that never passes its band's end. Pure bookkeeping — byte
/// movement and cost charging stay with the backend.
class RpLayout {
 public:
  /// `counts[i][j]` = |R_{i,j}|; `tuple_bytes` is the backend's
  /// sizeof(Tuple). Own-partition objects (j == i) never enter RP, so their
  /// slot has zero width.
  void Init(const std::vector<std::vector<uint64_t>>& counts,
            uint64_t tuple_bytes) {
    const uint32_t d = static_cast<uint32_t>(counts.size());
    sub_offset_.assign(d, std::vector<uint64_t>(d + 1, 0));
    counts_ = &counts;
    tuple_bytes_ = tuple_bytes;
    for (uint32_t i = 0; i < d; ++i) {
      uint64_t total = 0;
      for (uint32_t j = 0; j < d; ++j) {
        sub_offset_[i][j] = total * tuple_bytes;
        if (j != i) total += counts[i][j];
      }
      sub_offset_[i][d] = total * tuple_bytes;
    }
    cursor_ = sub_offset_;
  }

  /// Byte offset of sub-partition RP_{i,j} within RP_i.
  uint64_t SubOffset(uint32_t i, uint32_t j) const {
    return sub_offset_[i][j];
  }
  /// Objects in RP_{i,j} (j != i).
  uint64_t SubCount(uint32_t i, uint32_t j) const { return (*counts_)[i][j]; }
  /// Total bytes of RP_i (>= one tuple so empty RPs still map).
  uint64_t TotalBytes(uint32_t i) const {
    const uint64_t d = sub_offset_[i].size() - 1;
    return std::max<uint64_t>(sub_offset_[i][d], tuple_bytes_);
  }
  /// Claims the next slot of RP_{i,j}; returns its byte offset within RP_i,
  /// or nullopt once the band is full (always for j == i): R then holds
  /// more pointers into S_j than the counts metadata says.
  [[nodiscard]] std::optional<uint64_t> NextSlot(uint32_t i, uint32_t j) {
    const uint64_t off = cursor_[i][j];
    if (off >= sub_offset_[i][j + 1]) return std::nullopt;
    cursor_[i][j] = off + tuple_bytes_;
    return off;
  }
  /// True when every band is exactly full. A pass that leaves one short
  /// met fewer pointers than the metadata promised; the band's tail would
  /// be read as tuples.
  bool Filled() const {
    for (size_t i = 0; i < cursor_.size(); ++i) {
      for (size_t j = 0; j + 1 < cursor_[i].size(); ++j) {
        if (cursor_[i][j] != sub_offset_[i][j + 1]) return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::vector<uint64_t>> sub_offset_;  // [i][j] bytes, [i][d] end
  /// [i][j] byte offset of RP_{i,j}'s next free slot; [i][d] unused.
  std::vector<std::vector<uint64_t>> cursor_;
  const std::vector<std::vector<uint64_t>>* counts_ = nullptr;
  uint64_t tuple_bytes_ = 0;
};

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_BACKEND_H_
