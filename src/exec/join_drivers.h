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
//     implicit key levels) and probed per S tuple — S's identity IS the
//     probe key, so unmatched S objects are never touched.
//   Mpsm (EXT-9, after Albutiu/Kemper/Neumann): pass 0 range-partitions R
//     by S-pointer into one band per NUMA node; pass 1 sorts each band's
//     IRUN runs strictly node-locally (op::SortRunInPlace, i.e. the
//     backend's SortRefs: counted heapsort on the simulator, radix sort
//     on the real backend); pass 2 has each partition binary-search its
//     key range out of EVERY node's runs and merge-join
//     the slices against one sequential sweep of S_i — remote bands are
//     only ever scanned sequentially, never probed randomly. The pointer
//     join sorts only R (S's placement IS the sort key), so unlike the
//     original MPSM the S side needs no sorting at all.
//
// Cost charging (ChargeCpu/ChargeSetup), byte access, the S fetch protocol
// and barriers are all backend-provided; on the real backend the charges
// are no-ops and the work itself is the cost.
#ifndef MMJOIN_EXEC_JOIN_DRIVERS_H_
#define MMJOIN_EXEC_JOIN_DRIVERS_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
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
  // Foreign objects land in RP_{i,dest}; own-partition refs route through
  // the ProbeStage (prefetch-kernel staging or one RequestS each).
  op::Partition(
      ex,
      [&ex](uint32_t i, uint64_t begin, uint64_t end) {
        return op::ProbeStage<B>(ex, i, end - begin);
      },
      sync);

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
  const uint32_t d = ex.D();
  const sim::MachineConfig& mc = ex.mc();
  const bool sync = params.phase_sync.value_or(true);
  const uint64_t r = sizeof(rel::RObject);

  MMJOIN_RETURN_NOT_OK(ex.CreateRpSegments());

  const std::vector<uint64_t> rs_objects = op::RsObjects(ex);

  // RS_i and Merge_i live on disk i after R_i, S_i, RP_i.
  std::vector<Seg> rs_segs(d), merge_segs(d);
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t bytes = std::max<uint64_t>(rs_objects[i], 1) * r;
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
  layout.Init(flat_counts);
  auto append_rs_run = [&](uint32_t writer, uint32_t target,
                           const rel::RObject* run, uint64_t n) {
    op::AppendRun(ex, writer, rs_segs[target], layout.Claim(target, 0, n),
                  run, n);
  };

  // ---- Pass 0: partition R_i into RS_i (own pointers) and RP_{i,j}. ----
  op::Partition(
      ex,
      [&](uint32_t i, uint64_t, uint64_t) {
        return [&, i](const rel::RObject& obj, rel::SPtr) {
          append_rs_run(i, i, &obj, 1);
        };
      },
      sync);

  // ---- Pass 1: staggered phases move RP_{i,j} into RS_j. ----
  op::PhasedRepartition(
      ex, rs_segs,
      [&](uint32_t i, uint32_t j, uint64_t base, uint64_t begin,
          uint64_t end) {
        if constexpr (B::kBatchedProbe) {
          // The morsel's whole range is one contiguous RP_{i,j} run bound
          // for the fixed partner j: append it as one run.
          if (end > begin) {
            const auto* run = static_cast<const rel::RObject*>(
                ex.Read(i, ex.rp_seg(i), base + begin * r, (end - begin) * r));
            append_rs_run(i, j, run, end - begin);
          }
        } else {
          for (uint64_t k = begin; k < end; ++k) {
            const rel::RObject obj =
                op::ReadR(ex, i, ex.rp_seg(i), base + k * r);
            append_rs_run(i, j, &obj, 1);
          }
        }
      },
      sync);
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
// NUMA-affine massively-parallel sort-merge (EXT-9)
// ---------------------------------------------------------------------------

/// MPSM adapted to the pointer join. R is range-partitioned by packed
/// S-pointer into one contiguous *band* per NUMA node (pass 0), each band
/// is sorted into IRUN-object runs by that node's own workers
/// (pass 1), and each S partition's key range is then carved out of every
/// node's runs by binary search and k-way merge-joined against one
/// sequential sweep of S_i (pass 2). Cross-node traffic is confined to
/// the sequential tail scans of remote run slices — the random work
/// (sorting, heap pops, S dereferences) is all node-local. Output is
/// bit-identical to SortMerge: every R tuple lands in exactly one band,
/// every band tuple belongs to exactly one partition's key range, and the
/// output tallies are commutative sums.
///
/// On a single-node host (or the simulator, whose NumaNodeCount() is 1)
/// the range partitioning degenerates to one band — the documented
/// fallback: same passes, same results, no cross-node structure to
/// exploit.
template <Backend B>
StatusOr<join::JoinRunResult> Mpsm(B& ex, const join::JoinParams& params) {
  using Seg = typename B::Seg;
  const uint32_t d = ex.D();
  const sim::MachineConfig& mc = ex.mc();
  const bool sync = params.phase_sync.value_or(true);
  const uint64_t r = sizeof(rel::RObject);

  // One band per node, at most one node per partition (a band needs at
  // least one partition's worth of workers and one disk to live on).
  const uint32_t nodes =
      std::max<uint32_t>(1, std::min<uint32_t>(ex.NumaNodeCount(), d));
  auto node_of = [nodes, d](uint32_t p) -> uint32_t {
    return static_cast<uint32_t>(static_cast<uint64_t>(p) * nodes / d);
  };
  // First partition of each node's contiguous partition block: the band's
  // home disk, and the process that charges its setup.
  std::vector<uint32_t> node_first(nodes, 0);
  for (uint32_t p = d; p-- > 0;) node_first[node_of(p)] = p;

  // Band populations: band n receives every R tuple whose S-pointer
  // targets a partition of node n. Sub-band (n, i) — source partition i's
  // contribution — gets its own bump cursor, so pass-0 chains (one per
  // source partition) write race-free without synchronization.
  std::vector<std::vector<uint64_t>> band_counts(
      nodes, std::vector<uint64_t>(d, 0));
  for (uint32_t i = 0; i < d; ++i) {
    for (uint32_t p = 0; p < d; ++p) {
      band_counts[node_of(p)][i] += ex.SubCount(i, p);
    }
  }
  op::BucketLayout band_layout;
  band_layout.Init(band_counts);
  std::vector<uint64_t> band_total(nodes);
  uint64_t max_band = 0;
  for (uint32_t n = 0; n < nodes; ++n) {
    band_total[n] = band_layout.Total(n);
    max_band = std::max(max_band, band_total[n]);
  }

  // The node bands, each on its home node's first disk and — under
  // numa=local on a multi-node host — bound to its home node, so pass 1
  // sorts against local memory.
  std::vector<Seg> band_segs(nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    MMJOIN_ASSIGN_OR_RETURN(
        band_segs[n],
        ex.CreateSegment("NB" + std::to_string(n), node_first[n],
                         std::max<uint64_t>(band_total[n], 1) * r));
    ex.PlaceSegment(node_first[n], band_segs[n], n);
  }

  // Setup: openMap(R_i) + openMap(S_i) per partition plus newMap of the
  // node bands, serialized over D (the bands' share spread evenly).
  double band_new_ms = 0;
  for (uint32_t n = 0; n < nodes; ++n) {
    band_new_ms += mc.NewMapMs(ex.SegPages(band_segs[n]));
  }
  for (uint32_t i = 0; i < d; ++i) {
    const double per_proc = mc.OpenMapMs(ex.SegPages(ex.r_seg(i))) +
                            mc.OpenMapMs(ex.SegPages(ex.s_seg(i))) +
                            band_new_ms / d;
    ex.ChargeSetupAll(per_proc / d);
  }
  // R scans once sequentially; S_i is swept sequentially by the final
  // merge-join; the bands are about to be filled.
  for (uint32_t i = 0; i < d; ++i) {
    ex.AdviseSegment(i, ex.r_seg(i), AccessIntent::kSequential);
    ex.AdviseSegment(i, ex.s_seg(i), AccessIntent::kSequential);
  }
  for (uint32_t n = 0; n < nodes; ++n) {
    ex.AdviseSegment(node_first[n], band_segs[n],
                     AccessIntent::kPopulateWrite);
  }
  ex.MarkPass("setup");

  // ---- Pass 0: range-partition R_i across the node bands. ----
  // The destination keyspace is the node of the S-pointer's target
  // partition; foreign and own tuples route identically (there is no
  // "own" fast path — a band is shared by its node's partitions). Chained
  // morsels keep one writer per (band, source) cursor.
  ex.ForEachPartitionTuples(
      op::RCounts(ex),
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        auto append = [&](const rel::RObject& obj) {
          const uint32_t n = node_of(rel::SPtr::Unpack(obj.sptr).partition);
          op::AppendRun(ex, i, band_segs[n], band_layout.Claim(n, i, 1), &obj,
                        1);
        };
        const Seg r_seg = ex.r_seg(i);
        for (uint64_t k = begin; k < end; ++k) {
          if constexpr (B::kBatchedProbe) {
            append(*op::ReadRPtr(ex, i, r_seg, rel::Workload::ROffset(k)));
          } else {
            const rel::RObject obj =
                op::ReadR(ex, i, r_seg, rel::Workload::ROffset(k));
            ex.ChargeCpu(i, mc.map_ms);  // map the join attribute to target
            append(obj);
          }
        }
      },
      /*independent=*/false);
  if (sync) ex.SyncClocks();
  ex.MarkPass("pass0");

  // ---- Pass 1: sort each band's IRUN runs, strictly node-locally. ----
  // One IRUN for every band (sized off the largest) keeps run boundaries
  // a pure function of the plan, so pass 2 can locate any run by
  // arithmetic. Work is expressed in RUN units on partition slots: node
  // n's runs spread contiguously over node n's partition slots, and the
  // morsels are independent — each run sorts in isolation — so a node's
  // runs fan out across exactly its own workers under the node-affine
  // schedule.
  const join::SortMergePlan overall = join::PlanSortMerge(
      params.m_rproc_bytes, mc.page_size, max_band, params);
  const uint64_t irun = overall.irun;
  std::vector<uint64_t> node_runs(nodes);
  uint64_t total_runs = 0;
  for (uint32_t n = 0; n < nodes; ++n) {
    node_runs[n] = band_total[n] ? op::CeilDiv(band_total[n], irun) : 0;
    total_runs += node_runs[n];
  }
  std::vector<uint64_t> slot_first_run(d, 0), slot_run_count(d, 0);
  for (uint32_t q = 0; q < d; ++q) {
    const uint32_t n = node_of(q);
    const uint64_t slots =
        (n + 1 < nodes ? node_first[n + 1] : d) - node_first[n];
    const uint64_t k = q - node_first[n];
    slot_first_run[q] = k * node_runs[n] / slots;
    slot_run_count[q] = (k + 1) * node_runs[n] / slots - slot_first_run[q];
  }
  ex.ForEachPartitionTuples(
      slot_run_count,
      [&](uint32_t q, uint64_t rb, uint64_t re) {
        if (rb == re) return;
        const uint32_t n = node_of(q);
        const double sort_start_ms = ex.clock_ms(q);
        for (uint64_t t = rb; t < re; ++t) {
          const uint64_t g = slot_first_run[q] + t;
          const uint64_t start = g * irun;
          op::SortRunInPlace(ex, q, band_segs[n], start,
                             std::min<uint64_t>(irun, band_total[n] - start));
        }
        if (ex.tracing()) {
          ex.Span(q, "sort-runs", "heap", sort_start_ms,
                  {obs::Arg("runs", re - rb), obs::Arg("irun", irun)});
        }
      },
      /*independent=*/true);
  if (sync) ex.SyncClocks();
  ex.MarkPass("pass1");

  // ---- Pass 2: per partition, slice every node's runs and merge-join. ----
  // Partition p's tuples occupy the key range [SPtr{p,0}, SPtr{p+1,0}) —
  // located in each sorted run by binary search, then consumed as a
  // sequential scan off the merge heap. Pass 0's key-range banding means
  // every non-empty slice comes from p's HOME band (all cross-node
  // traffic already happened as pass-0 sequential scatter writes); the
  // probe of the other bands is cheap — two binary searches finding an
  // empty range — and the remote-slice counter it feeds is a
  // misalignment guard, not an expected code path. The merged stream
  // feeds the S fetch protocol exactly like SortMerge's final pass.
  const std::vector<uint64_t> rs_objects = op::RsObjects(ex);
  std::vector<uint64_t> fan_in(d, 0), local_slices(d, 0), remote_slices(d, 0);

  auto run_lower_bound = [&](uint32_t p, Seg seg, uint64_t lo, uint64_t hi,
                             uint64_t key) -> uint64_t {
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      const auto* obj =
          static_cast<const rel::RObject*>(ex.Read(p, seg, mid * r, r));
      if (obj->sptr < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };

  ex.ForEachPartition(rs_objects, [&](uint32_t p) {
    const uint32_t home = node_of(p);
    const uint64_t key_lo = rel::SPtr{p, 0}.Pack();
    const uint64_t key_hi = p + 1 < d ? rel::SPtr{p + 1, 0}.Pack() : 0;

    // Slice [cur, end) of every run holding p's key range.
    struct Slice {
      uint32_t node;
      uint64_t cur, end;
    };
    std::vector<Slice> slices;
    slices.reserve(total_runs);
    for (uint32_t n = 0; n < nodes; ++n) {
      for (uint64_t g = 0; g < node_runs[n]; ++g) {
        const uint64_t run_start = g * irun;
        const uint64_t run_end =
            std::min(band_total[n], run_start + irun);
        const uint64_t a =
            run_lower_bound(p, band_segs[n], run_start, run_end, key_lo);
        const uint64_t b =
            p + 1 < d
                ? run_lower_bound(p, band_segs[n], a, run_end, key_hi)
                : run_end;
        if (a < b) {
          slices.push_back(Slice{n, a, b});
          if (n == home) {
            ++local_slices[p];
          } else {
            ++remote_slices[p];
          }
        }
      }
    }
    fan_in[p] = slices.size();

    const double merge_start_ms = ex.clock_ms(p);
    std::vector<SRef> fetch;
    if constexpr (B::kBatchedProbe) fetch.reserve(op::kProbeScratch);
    MergeHeap heap(std::max<uint64_t>(slices.size(), 1));
    for (uint32_t g = 0; g < slices.size(); ++g) {
      const auto* obj = static_cast<const rel::RObject*>(
          ex.Read(p, band_segs[slices[g].node], slices[g].cur * r, r));
      heap.Insert(MergeEntry{obj->sptr, g});
    }
    while (!heap.empty()) {
      const uint32_t g = heap.Min().run;
      Slice& sl = slices[g];
      // Re-touch the popped object's page: with scarce memory it may have
      // been evicted since its key entered the heap (§6.2's anomaly).
      rel::RObject obj;
      const void* src =
          ex.Read(p, band_segs[sl.node], sl.cur * r, r);
      std::memcpy(&obj, src, r);
      ++sl.cur;
      if (sl.cur < sl.end) {
        const auto* next = static_cast<const rel::RObject*>(
            ex.Read(p, band_segs[sl.node], sl.cur * r, r));
        heap.DeleteInsert(MergeEntry{next->sptr, g});
      } else {
        heap.DeleteMin();
      }
      // The merged stream is in S-pointer order: S_p reads sequentially
      // through the fetch protocol.
      if constexpr (B::kBatchedProbe) {
        fetch.push_back(SRef{obj.id, obj.sptr});
        if (fetch.size() == op::kProbeScratch) {
          ex.RequestSBatch(p, fetch.data(), fetch.size());
          fetch.clear();
        }
      } else {
        ex.RequestS(p, obj.id, obj.sptr);
      }
    }
    if constexpr (B::kBatchedProbe) {
      if (!fetch.empty()) ex.RequestSBatch(p, fetch.data(), fetch.size());
    }
    ex.ChargeCpu(p, mc.HeapCostMs(heap.cost()));
    ex.FlushSRequests(p);
    if (ex.tracing()) {
      ex.Span(p, "slice-merge-join", "heap", merge_start_ms,
              {obs::Arg("fan_in", fan_in[p]),
               obs::Arg("objects", rs_objects[p])});
    }
  });
  ex.MarkPass("sort+merge+join");

  for (uint32_t n = 0; n < nodes; ++n) {
    ex.DropSegment(node_first[n], band_segs[n], /*discard=*/true);
    MMJOIN_RETURN_NOT_OK(ex.DeleteSegment(band_segs[n]));
  }

  join::JoinRunResult result = ex.Finish();
  result.irun = overall.irun;
  result.nrun_abl = overall.nrun_abl;
  result.nrun_last = overall.nrun_last;
  result.npass = 1;  // every partition merge-joins its slices in one pass
  result.lrun = *std::max_element(fan_in.begin(), fan_in.end());
  result.mpsm_nodes = nodes;
  result.mpsm_runs = total_runs;
  result.mpsm_local_slices =
      std::accumulate(local_slices.begin(), local_slices.end(), uint64_t{0});
  result.mpsm_remote_slices =
      std::accumulate(remote_slices.begin(), remote_slices.end(), uint64_t{0});
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
                             sizeof(rel::RObject)));
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
    // The chain table serves the simulator only: chains give the
    // one-at-a-time probe loop (and the paper's Sproc) bucket-local S
    // locality. The batched backend probes the RS band in place — the
    // pipeline's look-ahead subsumes the grouping, so the table build
    // (one hash + one push per tuple) disappears from the real run.
    std::vector<std::vector<SRef>> table(B::kBatchedProbe ? 0
                                                          : rs.plan.tsize);
    op::BuildProbeBuckets(ex, i, rs_segs[i], rs.layout, k_buckets,
                          rs.plan.tsize, table);
    ex.DropSegment(i, rs_segs[i], /*discard=*/true);
    partition_status[i] = ex.DeleteSegment(rs_segs[i]);
  });
  for (const Status& st : partition_status) MMJOIN_RETURN_NOT_OK(st);
  ex.MarkPass("bucket-join");

  join::JoinRunResult result = ex.Finish();
  result.k_buckets = k_buckets;
  result.tsize = rs.plan.tsize;
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
    // range is read here, sequentially by chain order). As in Grace, the
    // chain table serves the simulator only.
    std::vector<std::vector<SRef>> table(B::kBatchedProbe ? 0
                                                          : rs.plan.tsize);
    if constexpr (B::kBatchedProbe) {
      // The resident entries are already one contiguous SRef array.
      ex.RequestSBatch(i, resident[i].data(), resident[i].size());
    } else {
      for (const SRef& e : resident[i]) {
        table[rel::SPtr::Unpack(e.sptr).index % rs.plan.tsize].push_back(e);
      }
      op::ProbeChainTable(ex, i, table);
    }
    ex.FlushSRequests(i);

    op::BuildProbeBuckets(ex, i, rs_segs[i], rs.layout, k_buckets,
                          rs.plan.tsize, table);
    ex.DropSegment(i, rs_segs[i], /*discard=*/true);
    partition_status[i] = ex.DeleteSegment(rs_segs[i]);
  });
  for (const Status& st : partition_status) MMJOIN_RETURN_NOT_OK(st);
  ex.MarkPass("bucket-join");

  join::JoinRunResult result = ex.Finish();
  result.k_buckets = k_buckets;
  result.tsize = rs.plan.tsize;
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
  const uint64_t r = sizeof(rel::RObject);

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
                                     std::max<uint64_t>(rs_objects[i], 1) * r));
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
                       layout.Count(i, b + 1) * r, AccessIntent::kWillNeed);
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

  // ---- Probe: one exact-match descent per S tuple. ----
  // The probe key is the S tuple's own packed pointer — no S read happens
  // unless the index proves at least one R reference exists, which is the
  // whole selective-join advantage. Morsels are independent (probes touch
  // no shared output target), so a skewed partition spreads over workers.
  std::vector<uint64_t> s_counts(d);
  for (uint32_t i = 0; i < d; ++i) s_counts[i] = ex.s_count(i);
  std::atomic<uint64_t> total_matches{0};
  ex.ForEachPartitionTuples(
      s_counts,
      [&](uint32_t i, uint64_t begin, uint64_t end) {
        const op::IndexLayout& lay = ix_layout[i];
        // ~log_f(n) window scans per descent, ~4 compares each.
        const double probe_cpu_ms =
            static_cast<double>(4 * (lay.levels().size() + 1)) *
            mc.compare_ms;
        uint64_t matched = 0;
        if constexpr (B::kBatchedProbe) {
          std::vector<SRef> fetch;
          fetch.reserve(std::min(end - begin, op::kProbeScratch));
          for (uint64_t k = begin; k < end; ++k) {
            const uint64_t target = rel::SPtr{i, k}.Pack();
            const uint64_t hits =
                op::ProbeIndex(ex, i, ix_segs[i], lay, target,
                               [&](const SRef& e) {
                                 fetch.push_back(e);
                                 if (fetch.size() == op::kProbeScratch) {
                                   ex.RequestSBatch(i, fetch.data(),
                                                    fetch.size());
                                   fetch.clear();
                                 }
                               });
            if (hits > 0) ++matched;
          }
          if (!fetch.empty()) ex.RequestSBatch(i, fetch.data(), fetch.size());
        } else {
          for (uint64_t k = begin; k < end; ++k) {
            const uint64_t target = rel::SPtr{i, k}.Pack();
            ex.ChargeCpu(i, probe_cpu_ms);
            const uint64_t hits =
                op::ProbeIndex(ex, i, ix_segs[i], lay, target,
                               [&](const SRef& e) {
                                 ex.RequestS(i, e.r_id, e.sptr);
                               });
            if (hits > 0) ++matched;
          }
        }
        ex.FlushSRequests(i);
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
