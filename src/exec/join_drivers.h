// The six parallel pointer-based join drivers, written ONCE against the
// exec::Backend concept (see exec/backend.h) and instantiated over both the
// deterministic costed simulator (join::JoinExecution) and the real mmap
// runtime (exec::RealBackend).
//
// Since the operator-layer refactor each driver is a thin composition of
// the reusable pass stages in exec/op/stages.h — Partition,
// PhasedRepartition, BucketRepartition, ProbePhases, SortRuns,
// MergeJoinRuns, BuildProbeBuckets — plus the driver's own setup charges,
// segment layout and routing policy. The stages are an exact structural
// lift of the historical monolithic drivers: for each driver the sequence
// of backend operations is bit-identical to the pre-refactor code, on both
// backends (asserted by tests/cross_backend_test.cc, tests/operators_test.cc
// and, for the simulator's costs, tests/sim_golden_test.cc).
//
// Each driver is a direct transcription of the paper's algorithm:
//
//   NestedLoops (§5): pass 0 dereferences own-partition pointers
//     immediately and sub-partitions the rest into RP_{i,j}; pass 1 runs
//     D-1 staggered phases so no two workers hammer one S partition.
//   SortMerge (§6): passes 0/1 repartition R into RS_i (everything
//     pointing into S_i); each RS_i is then run-sorted, k-way merged, and
//     joined against a single sequential sweep of S_i.
//   Grace (§7): passes 0/1 hash R into K monotone coarse buckets of RS_i;
//     each bucket builds a TSIZE-chain table and joins with S_i read
//     sequentially overall.
//   HybridHash (EXT-5): Grace, except each worker keeps its own bucket-0
//     objects in a resident in-memory table, skipping one disk round trip.
//   IndexNestedLoops (EXT-8): passes 0/1 repartition R exactly like Grace
//     (monotone buckets), then each RS_i is packed into a per-partition
//     static B+-tree over the packed S-pointer (sorted SRef leaves +
//     implicit key levels) and probed with one leaf-range scan per S
//     morsel — S's identity IS the key, so unmatched S is never touched.
//   Mpsm (EXT-9, after Albutiu/Kemper/Neumann): pass 0 writes each R_i
//     object's 16-byte (id, sptr) ref into a private MR_i; pass 1 sorts
//     MR_i in place as runs of M_Rproc / 16 refs (the backend's SortRefs:
//     counted heapsort on the simulator, radix sort on the real backend);
//     the final pass pushes every run, in order, through the S fetch
//     protocol. S's placement IS its sort key, so S is only swept, never
//     sorted, and there is no merge.
//
// Cost charging (ChargeCpu/ChargeSetup), byte access, the S fetch protocol
// and barriers are all backend-provided; on the real backend the charges
// are no-ops and the work itself is the cost. So is the tuple width of the
// temporaries (B::Tuple): RP, RS and sort-merge's Merge/Swap areas hold
// whole 128-byte objects on the simulator and 16-byte (r_id, sptr) refs
// on the real backend, and every stride below is sizeof(B::Tuple).
#ifndef MMJOIN_EXEC_JOIN_DRIVERS_H_
#define MMJOIN_EXEC_JOIN_DRIVERS_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "exec/backend.h"
#include "exec/op/stages.h"
#include "join/grace.h"
#include "join/join_common.h"
#include "join/sort_merge.h"

namespace mmjoin::exec {

// ---------------------------------------------------------------------------
// Nested loops (§5)
// ---------------------------------------------------------------------------

template <Backend B>
StatusOr<join::JoinRunResult> NestedLoops(B& ex,
                                          const join::JoinParams& params) {
  const uint32_t d = ex.D();
  const sim::MachineConfig& mc = ex.mc();
  const bool sync = params.phase_sync.value_or(false);

  MMJOIN_RETURN_NOT_OK(ex.CreateRpSegments());

  // Setup: openMap(P_Ri) + openMap(P_Si) + newMap(P_RPi), serialized over D.
  for (uint32_t i = 0; i < d; ++i) {
    const double per_proc = mc.OpenMapMs(ex.SegPages(ex.r_seg(i))) +
                            mc.OpenMapMs(ex.SegPages(ex.s_seg(i))) +
                            mc.NewMapMs(ex.RpPages(i));
    ex.ChargeSetupAll(per_proc / d);  // ChargeSetupAll re-multiplies by D
  }
  // Declare the pass-0/1 access pattern (no-op on the simulator and under
  // paging=none): R is scanned once sequentially, S is probed in pointer
  // order, and the RP temporaries are about to be filled — pre-faulting
  // them turns pass 0's first-touch faults into one bulk populate.
  for (uint32_t i = 0; i < d; ++i) {
    ex.AdviseSegment(i, ex.r_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, ex.s_seg(i), AccessIntent::kRandom);
    ex.AdviseSegment(i, ex.rp_seg(i), AccessIntent::kPopulateWrite);
  }
  ex.MarkPass("setup");

  // ---- Pass 0: partition R_i; join the R_{i,i} objects immediately. ----
  // Foreign objects land in RP_{i,dest}; own-partition refs go straight
  // into the morsel's S fetch.
  MMJOIN_RETURN_NOT_OK(op::Partition(
      ex,
      [&ex](uint32_t i, uint64_t begin, uint64_t end) {
        return op::SFetch<B>(ex, i, end - begin);
      },
      sync));

  // ---- Pass 1: D-1 staggered probe-only phases over the RP_{i,j}. ----
  op::ProbePhases(ex, sync);
  MMJOIN_RETURN_NOT_OK(op::DropRpSegments(ex));

  return ex.Finish();
}

// ---------------------------------------------------------------------------
// Sort-merge (§6)
// ---------------------------------------------------------------------------

template <Backend B>
StatusOr<join::JoinRunResult> SortMerge(B& ex,
                                        const join::JoinParams& params) {
  using Seg = typename B::Seg;
  using Tuple = typename B::Tuple;
  const uint32_t d = ex.D();
  const sim::MachineConfig& mc = ex.mc();
  const bool sync = params.phase_sync.value_or(true);
  const uint64_t t = sizeof(Tuple);

  MMJOIN_RETURN_NOT_OK(ex.CreateRpSegments());

  const std::vector<uint64_t> rs_objects = op::RsObjects(ex);

  // RS_i and Merge_i live on disk i after R_i, S_i, RP_i.
  std::vector<Seg> rs_segs(d), merge_segs(d);
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t bytes = std::max<uint64_t>(rs_objects[i], 1) * t;
    MMJOIN_ASSIGN_OR_RETURN(
        rs_segs[i], ex.CreateSegment("RS" + std::to_string(i), i, bytes));
    MMJOIN_ASSIGN_OR_RETURN(
        merge_segs[i],
        ex.CreateSegment("Merge" + std::to_string(i), i, bytes));
  }

  // Setup: openMap(R_i) + openMap(S_i) + newMap(RS_i) + newMap(RP_i)
  //        + newMap(Merge_i), serialized over D.
  for (uint32_t i = 0; i < d; ++i) {
    const double per_proc = mc.OpenMapMs(ex.SegPages(ex.r_seg(i))) +
                            mc.OpenMapMs(ex.SegPages(ex.s_seg(i))) +
                            mc.NewMapMs(ex.SegPages(rs_segs[i])) +
                            mc.NewMapMs(ex.RpPages(i)) +
                            mc.NewMapMs(ex.SegPages(merge_segs[i]));
    ex.ChargeSetupAll(per_proc / d);
  }
  // R scans once sequentially; S_i is swept sequentially by the final
  // merge-join; the RS/Merge/RP temporaries are about to be filled.
  for (uint32_t i = 0; i < d; ++i) {
    ex.AdviseSegment(i, ex.r_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, ex.s_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, rs_segs[i], AccessIntent::kPopulateWrite);
    ex.AdviseSegment(i, merge_segs[i], AccessIntent::kPopulateWrite);
    ex.AdviseSegment(i, ex.rp_seg(i), AccessIntent::kPopulateWrite);
  }
  ex.MarkPass("setup");

  // RS_i is one flat region — a one-bucket BucketLayout. Writers append to
  // RS_target through disjoint per-target cursors: within a pass/phase
  // exactly one worker writes a given target (own partition in pass 0, the
  // staggered partner in each phase of pass 1).
  std::vector<std::vector<uint64_t>> flat_counts(d, std::vector<uint64_t>(1));
  for (uint32_t i = 0; i < d; ++i) flat_counts[i][0] = rs_objects[i];
  op::BucketLayout layout;
  layout.Init(flat_counts, t);
  // A full RS_target refuses the run (false): R disagrees with the counts.
  auto append_rs_run = [&](uint32_t writer, uint32_t target, const Tuple* run,
                           uint64_t n) {
    const std::optional<uint64_t> off = layout.Claim(target, 0, n);
    if (!off) return false;
    op::AppendRun(ex, writer, rs_segs[target], *off, run, n);
    return true;
  };

  // ---- Pass 0: partition R_i into RS_i (own pointers) and RP_{i,j}. ----
  MMJOIN_RETURN_NOT_OK(op::Partition(
      ex,
      [&](uint32_t i, uint64_t, uint64_t) {
        return [&, i](const Tuple& tuple, rel::SPtr) {
          return append_rs_run(i, i, &tuple, 1);
        };
      },
      sync));

  // ---- Pass 1: staggered phases move RP_{i,j} into RS_j. ----
  MMJOIN_RETURN_NOT_OK(op::PhasedRepartition(
      ex, rs_segs,
      [&](uint32_t i, uint32_t j, uint64_t base, uint64_t begin,
          uint64_t end) {
        if constexpr (B::kBatchedProbe) {
          // The morsel's whole range is one contiguous RP_{i,j} run bound
          // for the fixed partner j: append it as one run.
          if (end == begin) return true;
          const auto* run = static_cast<const Tuple*>(
              ex.Read(i, ex.rp_seg(i), base + begin * t, (end - begin) * t));
          return append_rs_run(i, j, run, end - begin);
        } else {
          for (uint64_t k = begin; k < end; ++k) {
            const auto& tuple =
                op::LoadTuple(ex, i, ex.rp_seg(i), base + k * t);
            if (!append_rs_run(i, j, &tuple, 1)) return false;
          }
          return true;
        }
      },
      sync));
  if (!layout.Filled()) return op::RsLeftShort();
  MMJOIN_RETURN_NOT_OK(op::DropRpSegments(ex));
  ex.MarkPass("pass1");

  // ---- Pass 2: sort runs of IRUN objects, merge, final merge-join. ----
  uint64_t max_rs = 0;
  for (uint32_t i = 0; i < d; ++i) max_rs = std::max(max_rs, rs_objects[i]);
  const join::SortMergePlan overall =
      join::PlanSortMerge(params.m_rproc_bytes, mc.page_size, max_rs, params);

  std::vector<Seg> src_seg = rs_segs;
  std::vector<Seg> dst_seg = merge_segs;
  std::vector<uint64_t> npass_per(d, 0);
  std::vector<Status> partition_status(d);

  // Monolithic per-partition work: the costed overload lets a dynamic
  // schedule seed its queues largest-RS-first.
  ex.ForEachPartition(rs_objects, [&](uint32_t i) {
    const uint64_t n = rs_objects[i];
    const join::SortMergePlan plan =
        join::PlanSortMerge(params.m_rproc_bytes, mc.page_size, n, params);
    const uint64_t runs = op::SortRuns(ex, i, src_seg[i], n, plan.irun);
    partition_status[i] = op::MergeJoinRuns(ex, i, &src_seg[i], &dst_seg[i],
                                            n, plan, runs, &npass_per[i]);
  });
  for (const Status& st : partition_status) MMJOIN_RETURN_NOT_OK(st);
  ex.MarkPass("sort+merge+join");

  // Drop remaining temporaries.
  for (uint32_t i = 0; i < d; ++i) {
    ex.DropSegment(i, src_seg[i], /*discard=*/true);
    ex.DropSegment(i, dst_seg[i], /*discard=*/true);
    MMJOIN_RETURN_NOT_OK(ex.DeleteSegment(src_seg[i]));
    MMJOIN_RETURN_NOT_OK(ex.DeleteSegment(dst_seg[i]));
  }

  join::JoinRunResult result = ex.Finish();
  result.irun = overall.irun;
  result.nrun_abl = overall.nrun_abl;
  result.nrun_last = overall.nrun_last;
  result.lrun = overall.lrun;
  result.npass = *std::max_element(npass_per.begin(), npass_per.end());
  return result;
}

// ---------------------------------------------------------------------------
// Massively-parallel sort-merge (EXT-9)
// ---------------------------------------------------------------------------

/// MPSM after Albutiu, Kemper and Neumann: each worker sorts only its
/// private input, the public input is merely scanned, and there is no
/// global merge. Here R is private and S is public — S's placement is
/// already its sort order. Pass 0 writes each R_i object's 16-byte
/// (id, sptr) ref into MR_i; pass 1 sorts MR_i in place as runs of
/// L = M_Rproc / 16 refs (one run per partition whenever R_i fits); the
/// final pass pushes every run, in its sorted order, through the S fetch
/// protocol, so each run sweeps S once in pointer order. With several runs
/// per partition S is swept once per run — MPSM's trade-off, which the
/// simulator prices as faults. Output is bit-identical to SortMerge: the
/// same (r_id, sptr) pairs are fetched and the tallies are commutative.
template <Backend B>
StatusOr<join::JoinRunResult> Mpsm(B& ex, const join::JoinParams& params) {
  using Seg = typename B::Seg;
  const uint32_t d = ex.D();
  const sim::MachineConfig& mc = ex.mc();
  const bool sync = params.phase_sync.value_or(true);
  const uint64_t ref = sizeof(SRef);
  const std::vector<uint64_t> r_counts = op::RCounts(ex);

  // MR_i, on disk i after R_i and S_i: one ref per R_i object.
  std::vector<Seg> mr_segs(d);
  for (uint32_t i = 0; i < d; ++i) {
    MMJOIN_ASSIGN_OR_RETURN(
        mr_segs[i],
        ex.CreateSegment("MR" + std::to_string(i), i,
                         std::max<uint64_t>(r_counts[i], 1) * ref));
  }
  // Setup: openMap(R_i) + openMap(S_i) + newMap(MR_i), serialized over D.
  for (uint32_t i = 0; i < d; ++i) {
    const double per_proc = mc.OpenMapMs(ex.SegPages(ex.r_seg(i))) +
                            mc.OpenMapMs(ex.SegPages(ex.s_seg(i))) +
                            mc.NewMapMs(ex.SegPages(mr_segs[i]));
    ex.ChargeSetupAll(per_proc / d);
  }
  // R scans once sequentially; S is swept in pointer order; MR_i is about
  // to be filled.
  for (uint32_t i = 0; i < d; ++i) {
    ex.AdviseSegment(i, ex.r_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, ex.s_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, mr_segs[i], AccessIntent::kPopulateWrite);
  }
  ex.MarkPass("setup");

  // ---- Pass 0: each morsel writes its R objects' refs at its own slots. --
  // A pointer into no S partition ends the join with Corruption before the
  // sweep would dereference it.
  op::PassError error;
  ex.ForEachPartitionTuples(
      r_counts,
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        const Seg r_seg = ex.r_seg(i);
        for (uint64_t k = begin; k < end; ++k) {
          const auto& obj = op::LoadR(ex, i, r_seg, rel::Workload::ROffset(k));
          if (rel::SPtr::Unpack(obj.sptr).partition >= d) {
            error.Fail(op::NoSuchPartition(i, obj.id, d));
            break;
          }
          const SRef out{obj.id, obj.sptr};
          std::memcpy(ex.Write(i, mr_segs[i], k * ref, ref), &out, ref);
        }
        ex.ChargeCpu(i, static_cast<double>((end - begin) * ref) *
                            mc.mt_pp_ms);
      },
      /*independent=*/true);
  if (sync) ex.SyncClocks();
  ex.MarkPass("pass0");
  MMJOIN_RETURN_NOT_OK(error.status());

  // ---- Pass 1: sort MR_i in place as runs of L refs. ----
  // L is sized off M_Rproc, so no run sorts in more than private memory.
  const uint64_t run_len = std::max<uint64_t>(1, params.m_rproc_bytes / ref);
  std::vector<uint64_t> run_counts(d);
  for (uint32_t i = 0; i < d; ++i) {
    run_counts[i] = op::CeilDiv(r_counts[i], run_len);
  }
  ex.ForEachPartitionTuples(
      run_counts,
      [&](uint32_t i, uint64_t rb, uint64_t re) {
        const double sort_start_ms = ex.clock_ms(i);
        for (uint64_t t = rb; t < re; ++t) {
          const uint64_t start = t * run_len;
          const uint64_t len = std::min(run_len, r_counts[i] - start);
          void* run = ex.Write(i, mr_segs[i], start * ref, len * ref);
          ex.SortRefs(i, static_cast<SRef*>(run), len, SortKey::kSptr);
        }
        if (ex.tracing()) {
          ex.Span(i, "sort-runs", "heap", sort_start_ms,
                  {obs::Arg("runs", re - rb), obs::Arg("irun", run_len)});
        }
      },
      /*independent=*/true);
  if (sync) ex.SyncClocks();
  ex.MarkPass("pass1");

  // ---- Sweep: push each run's refs, in order, through the S fetch. ----
  ex.ForEachPartitionTuples(
      r_counts,
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        op::SFetch<B> fetch(ex, i, end - begin);
        for (uint64_t k = begin; k < end; ++k) {
          SRef in{};
          std::memcpy(&in, ex.Read(i, mr_segs[i], k * ref, ref), ref);
          fetch.Push(in.r_id, in.sptr);
        }
        fetch.Finish();
      },
      /*independent=*/true);
  ex.MarkPass("sort+merge+join");

  for (uint32_t i = 0; i < d; ++i) {
    ex.DropSegment(i, mr_segs[i], /*discard=*/true);
    MMJOIN_RETURN_NOT_OK(ex.DeleteSegment(mr_segs[i]));
  }

  join::JoinRunResult result = ex.Finish();
  result.irun = run_len;
  result.npass = 1;  // every run is swept once
  result.lrun = *std::max_element(run_counts.begin(), run_counts.end());
  return result;
}

// ---------------------------------------------------------------------------
// Grace (§7)
// ---------------------------------------------------------------------------

/// Setup of Grace and hybrid hash: creates RS_i with `layout`'s K
/// contiguous bucket regions, charges openMap(R_i) + openMap(S_i) +
/// newMap(RS_i + RP_i) + openMap(RS_i) (the re-attachment for the
/// bucket-processing pass) serialized over D, and declares the access
/// pattern: R scans once sequentially, S_i is probed by hash-clustered
/// chains (probe-heavy), the RS/RP temporaries are about to be filled.
template <Backend B>
StatusOr<std::vector<typename B::Seg>> SetUpHashBuckets(
    B& ex, const op::BucketLayout& layout) {
  const uint32_t d = ex.D();
  const sim::MachineConfig& mc = ex.mc();
  std::vector<typename B::Seg> rs_segs(d);
  for (uint32_t i = 0; i < d; ++i) {
    MMJOIN_ASSIGN_OR_RETURN(
        rs_segs[i],
        ex.CreateSegment("RS" + std::to_string(i), i,
                         std::max<uint64_t>(layout.Total(i), 1) *
                             sizeof(typename B::Tuple)));
  }
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t rs_pages = ex.SegPages(rs_segs[i]);
    const double per_proc = mc.OpenMapMs(ex.SegPages(ex.r_seg(i))) +
                            mc.OpenMapMs(ex.SegPages(ex.s_seg(i))) +
                            mc.NewMapMs(rs_pages + ex.RpPages(i)) +
                            mc.OpenMapMs(rs_pages);
    ex.ChargeSetupAll(per_proc / d);
  }
  for (uint32_t i = 0; i < d; ++i) {
    ex.AdviseSegment(i, ex.r_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, ex.s_seg(i), AccessIntent::kRandom);
    ex.AdviseSegment(i, rs_segs[i], AccessIntent::kPopulateWrite);
    ex.AdviseSegment(i, ex.rp_seg(i), AccessIntent::kPopulateWrite);
  }
  ex.MarkPass("setup");
  return rs_segs;
}

template <Backend B>
StatusOr<join::JoinRunResult> Grace(B& ex, const join::JoinParams& params) {
  const uint32_t d = ex.D();
  const bool sync = params.phase_sync.value_or(true);

  MMJOIN_RETURN_NOT_OK(ex.CreateRpSegments());
  MMJOIN_ASSIGN_OR_RETURN(
      op::BucketedRs rs,
      op::PlanBucketedRs(ex, params, /*resident=*/nullptr));
  const uint32_t k_buckets = rs.plan.k_buckets;
  MMJOIN_ASSIGN_OR_RETURN(std::vector<typename B::Seg> rs_segs,
                          SetUpHashBuckets(ex, rs.layout));

  // ---- Passes 0/1: hash R into RS_i's K monotone buckets. ----
  MMJOIN_RETURN_NOT_OK(op::BucketRepartition(ex, rs_segs, rs.layout,
                                             k_buckets, /*resident=*/nullptr,
                                             sync));

  // ---- Passes 1+j: per bucket, build the TSIZE-chain table and join. ----
  std::vector<Status> partition_status(d);
  ex.ForEachPartition(rs.objects, [&](uint32_t i) {
    op::BuildProbeBuckets(ex, i, rs_segs[i], rs.layout, k_buckets,
                          rs.plan.tsize);
    ex.DropSegment(i, rs_segs[i], /*discard=*/true);
    partition_status[i] = ex.DeleteSegment(rs_segs[i]);
  });
  for (const Status& st : partition_status) MMJOIN_RETURN_NOT_OK(st);
  ex.MarkPass("bucket-join");

  join::JoinRunResult result = ex.Finish();
  result.k_buckets = k_buckets;
  result.tsize = rs.plan.tsize;
  result.histogram_scans = rs.histogram_scans;
  return result;
}

// ---------------------------------------------------------------------------
// Hybrid hash (EXT-5)
// ---------------------------------------------------------------------------

template <Backend B>
StatusOr<join::JoinRunResult> HybridHash(B& ex,
                                         const join::JoinParams& params) {
  const uint32_t d = ex.D();
  const bool sync = params.phase_sync.value_or(true);

  MMJOIN_RETURN_NOT_OK(ex.CreateRpSegments());
  // Spill-bucket populations. Bucket 0 of RS_i receives only the *remote*
  // contributions (R_{j,i}, j != i); the owner's bucket-0 objects stay in
  // memory. Buckets >= 1 receive everything, as in Grace.
  std::vector<uint64_t> resident_count;
  MMJOIN_ASSIGN_OR_RETURN(op::BucketedRs rs,
                          op::PlanBucketedRs(ex, params, &resident_count));
  const uint32_t k_buckets = rs.plan.k_buckets;
  MMJOIN_ASSIGN_OR_RETURN(std::vector<typename B::Seg> rs_segs,
                          SetUpHashBuckets(ex, rs.layout));

  // The resident tables: per process, (r_id, sptr) entries of its own
  // bucket-0 objects. Table memory is part of M_Rproc (the Grace K rule
  // already budgets one bucket plus overhead). An entry is exactly an
  // S-ref, so the batched path can flatten chains into kernel batches.
  std::vector<std::vector<SRef>> resident(d);
  for (uint32_t i = 0; i < d; ++i) resident[i].reserve(resident_count[i]);

  // ---- Passes 0/1: as Grace, but own bucket-0 objects stay in memory. ----
  MMJOIN_RETURN_NOT_OK(op::BucketRepartition(ex, rs_segs, rs.layout,
                                             k_buckets, &resident, sync));

  // ---- Join: resident table first, then the spilled buckets. ----
  std::vector<Status> partition_status(d);
  ex.ForEachPartition(rs.objects, [&](uint32_t i) {
    // Resident bucket 0: already in memory, join directly (S_i bucket-0
    // range is read here).
    op::ProbeResident(ex, i, resident[i], rs.plan.tsize);
    op::BuildProbeBuckets(ex, i, rs_segs[i], rs.layout, k_buckets,
                          rs.plan.tsize);
    ex.DropSegment(i, rs_segs[i], /*discard=*/true);
    partition_status[i] = ex.DeleteSegment(rs_segs[i]);
  });
  for (const Status& st : partition_status) MMJOIN_RETURN_NOT_OK(st);
  ex.MarkPass("bucket-join");

  join::JoinRunResult result = ex.Finish();
  result.k_buckets = k_buckets;
  result.tsize = rs.plan.tsize;
  result.histogram_scans = rs.histogram_scans;
  return result;
}

// ---------------------------------------------------------------------------
// Index nested-loops (EXT-8)
// ---------------------------------------------------------------------------

template <Backend B>
StatusOr<join::JoinRunResult> IndexNestedLoops(B& ex,
                                               const join::JoinParams& params) {
  using Seg = typename B::Seg;
  const uint32_t d = ex.D();
  const sim::MachineConfig& mc = ex.mc();
  const bool sync = params.phase_sync.value_or(true);
  const uint64_t t = sizeof(typename B::Tuple);

  MMJOIN_RETURN_NOT_OK(ex.CreateRpSegments());

  // Passes 0/1 are Grace's: repartition R into RS_i's monotone buckets so
  // the per-bucket sorts concatenate into one globally sorted leaf array
  // (the bulk leaf build stays within the same M_Rproc bucket budget).
  MMJOIN_ASSIGN_OR_RETURN(
      op::BucketedRs rs,
      op::PlanBucketedRs(ex, params, /*resident=*/nullptr));
  const std::vector<uint64_t>& rs_objects = rs.objects;
  const op::BucketLayout& layout = rs.layout;
  const uint32_t k_buckets = rs.plan.k_buckets;

  std::vector<Seg> rs_segs(d);
  std::vector<Seg> ix_segs(d);
  std::vector<op::IndexLayout> ix_layout(d);
  for (uint32_t i = 0; i < d; ++i) {
    MMJOIN_ASSIGN_OR_RETURN(
        rs_segs[i], ex.CreateSegment("RS" + std::to_string(i), i,
                                     std::max<uint64_t>(rs_objects[i], 1) * t));
    ix_layout[i].Plan(rs_objects[i]);
    MMJOIN_ASSIGN_OR_RETURN(
        ix_segs[i],
        ex.CreateSegment("IX" + std::to_string(i), i,
                         std::max<uint64_t>(ix_layout[i].total_bytes(), 1)));
  }

  // Setup: openMap(R_i) + openMap(S_i) + newMap(RS_i + RP_i + IX_i)
  // + openMap(IX_i) (the re-attachment for the probe pass), over D.
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t ix_pages = ex.SegPages(ix_segs[i]);
    const double per_proc = mc.OpenMapMs(ex.SegPages(ex.r_seg(i))) +
                            mc.OpenMapMs(ex.SegPages(ex.s_seg(i))) +
                            mc.NewMapMs(ex.SegPages(rs_segs[i]) +
                                        ex.RpPages(i) + ix_pages) +
                            mc.OpenMapMs(ix_pages);
    ex.ChargeSetupAll(per_proc / d);
  }
  // R scans once sequentially; the probe sweeps S in ascending pointer
  // order (only matched objects are touched); temporaries pre-fault.
  for (uint32_t i = 0; i < d; ++i) {
    ex.AdviseSegment(i, ex.r_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, ex.s_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, rs_segs[i], AccessIntent::kPopulateWrite);
    ex.AdviseSegment(i, ix_segs[i], AccessIntent::kPopulateWrite);
    ex.AdviseSegment(i, ex.rp_seg(i), AccessIntent::kPopulateWrite);
  }
  ex.MarkPass("setup");

  MMJOIN_RETURN_NOT_OK(op::BucketRepartition(ex, rs_segs, rs.layout,
                                             k_buckets, /*resident=*/nullptr,
                                             sync));

  // ---- Index build: pack RS_i's buckets into the sorted leaf array, ----
  // then derive the key levels. Per-bucket sorts keyed by (sptr, r_id) —
  // a total order, so the leaf content (and with it the probe behavior)
  // is identical on every backend and schedule. The RS bands stream with
  // the same kWillNeed look-ahead as the Grace bucket loop.
  std::vector<Status> partition_status(d);
  ex.ForEachPartition(rs_objects, [&](uint32_t i) {
    uint64_t out = 0;
    for (uint32_t b = 0; b < k_buckets; ++b) {
      if (b + 1 < k_buckets) {
        ex.AdviseRange(i, rs_segs[i], layout.Offset(i, b + 1),
                       layout.Count(i, b + 1) * t, AccessIntent::kWillNeed);
      }
      op::SortIndexRun(ex, i, rs_segs[i], layout.Offset(i, b),
                       layout.Count(i, b), ix_segs[i], out);
      out += layout.Count(i, b);
    }
    op::BuildIndexLevels(ex, i, ix_segs[i], ix_layout[i]);
    ex.DropSegment(i, rs_segs[i], /*discard=*/true);
    partition_status[i] = ex.DeleteSegment(rs_segs[i]);
  });
  for (const Status& st : partition_status) MMJOIN_RETURN_NOT_OK(st);
  ex.MarkPass("index-build");

  // ---- Probe: one descent plus one leaf-range scan per S morsel. ----
  // A morsel's keys SPtr{i, begin..end} ascend, so its answer is one leaf
  // range; no S read happens unless the index holds an R reference to it.
  // Morsels are independent, so a skewed partition spreads over workers.
  std::vector<uint64_t> s_counts(d);
  for (uint32_t i = 0; i < d; ++i) s_counts[i] = ex.s_count(i);
  std::atomic<uint64_t> total_matches{0};
  ex.ForEachPartitionTuples(
      s_counts,
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        const op::IndexLayout& lay = ix_layout[i];
        // ~log_f(n) window scans for the descent, ~4 compares each.
        ex.ChargeCpu(i, static_cast<double>(4 * (lay.levels().size() + 1)) *
                            mc.compare_ms);
        op::SFetch<B> fetch(ex, i, end - begin);
        const uint64_t matched = op::ProbeIndexRange(
            ex, i, ix_segs[i], lay, rel::SPtr{i, begin}.Pack(),
            rel::SPtr{i, end}.Pack(),
            [&](const SRef& e) { fetch.Push(e.r_id, e.sptr); });
        fetch.Finish();
        total_matches.fetch_add(matched, std::memory_order_relaxed);
      },
      /*independent=*/true);
  if (sync) ex.SyncClocks();

  for (uint32_t i = 0; i < d; ++i) {
    ex.DropSegment(i, ix_segs[i], /*discard=*/true);
    MMJOIN_RETURN_NOT_OK(ex.DeleteSegment(ix_segs[i]));
  }
  ex.MarkPass("index-probe");

  join::JoinRunResult result = ex.Finish();
  result.k_buckets = k_buckets;
  result.histogram_scans = rs.histogram_scans;
  uint64_t entries = 0, levels = 0;
  for (uint32_t i = 0; i < d; ++i) {
    entries += rs_objects[i];
    levels = std::max<uint64_t>(levels, ix_layout[i].levels().size());
  }
  result.index_entries = entries;
  result.index_probes =
      std::accumulate(s_counts.begin(), s_counts.end(), uint64_t{0});
  result.index_matches = total_matches.load(std::memory_order_relaxed);
  result.index_levels = levels;
  return result;
}

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_JOIN_DRIVERS_H_
