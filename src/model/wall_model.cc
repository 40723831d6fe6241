#include "model/wall_model.h"

#include <algorithm>
#include <cmath>

#include "join/grace.h"
#include "join/sort_merge.h"
#include "rel/relation.h"

namespace mmjoin::model {
namespace {

constexpr double kRObjBytes = static_cast<double>(sizeof(rel::RObject));
// What the real backend's temporaries hold per tuple: RP, RS and
// sort-merge's merge areas, like MPSM's runs, are (r_id, sptr) refs. R and
// S are still scanned at their full object width.
constexpr double kRefBytes = 16.0;
constexpr double kSObjBytes = static_cast<double>(sizeof(rel::SObject));
constexpr double kPageBytes = 4096.0;
constexpr double kNsToMs = 1e-6;

// Index-entry bytes: one 16-byte SRef leaf (r_id, sptr) of index-NL's
// sorted leaf array (exec/op/stages.h, op::BuildIndex).
constexpr double kIndexEntryBytes = 16.0;
// B+-tree fan-out estimate for probe-depth prediction.
constexpr double kIndexFanout = 64.0;

// Sorting 16-byte (sptr, r_id) pairs moves an eighth of a 128-byte object
// per swap; the comparison itself is the same. Scales the object-sort
// calibration down for the index bulk build and MPSM's run sorts.
constexpr double kSmallSortScale = 0.4;

// Per-pass coordination constants (barriers, plan derivation, per-bucket
// bookkeeping). Deliberately small: they only matter when the per-tuple
// terms vanish, which is exactly when the planner must prefer the
// fewest-pass driver. A staggered pass 1 counts as its D-1 phases: each
// phase ends in a barrier of its own.
constexpr double kPassMs = 0.02;
constexpr double kWorkerSpawnMs = 0.01;
constexpr double kBucketMs = 0.001;

double Log2AtLeast1(double v) { return std::log2(std::max(2.0, v)); }

/// Everything the per-driver formulas share, precomputed once.
struct Ctx {
  const MachineProfile& mc;
  const WallInputs& in;
  double nr, ns;        // object counts
  double rb, sb;        // relation bytes
  double d;             // partitions
  double phases;        // barriers of a staggered pass: D-1, at least 1
  double w;             // parallel divisor
  double stretch;       // hot-partition critical-path stretch
  double fr;            // remote fraction: (nodes-1)/nodes
  double seq;           // ns/byte, sequential, with remote blend
  double copy;          // ns/byte, scatter, with remote blend
  double rand_remote;   // multiplier on random derefs

  explicit Ctx(const MachineProfile& m, const WallInputs& i)
      : mc(m), in(i) {
    nr = static_cast<double>(in.r_objects);
    ns = static_cast<double>(in.s_objects);
    rb = nr * kRObjBytes;
    sb = ns * kSObjBytes;
    d = static_cast<double>(std::max<uint32_t>(1, in.partitions));
    phases = std::max(1.0, d - 1.0);
    w = static_cast<double>(std::max<uint32_t>(1, in.workers));
    // The stealing schedule over-splits hot partitions, flattening most of
    // the skew; a residual stretch survives on the probe passes.
    stretch = 1.0 + (std::max(1.0, in.skew) - 1.0) * 0.15;
    const double nodes = std::max<uint32_t>(1, in.numa_nodes);
    fr = (nodes - 1.0) / nodes;
    seq = mc.seq_ns_per_byte * (1.0 + fr * (mc.numa_remote_seq_factor - 1.0));
    copy = mc.scatter_ns_per_byte *
           (1.0 + fr * (mc.numa_remote_copy_factor - 1.0));
    rand_remote = 1.0 + fr * (mc.numa_remote_rand_factor - 1.0);
  }

  double RandNs(double band_bytes) const {
    return mc.RandDerefNs(band_bytes) * rand_remote;
  }
  /// First-touch cost of `bytes` of fresh anonymous temporaries, ms.
  double TempFaultMs(double bytes) const {
    return bytes / kPageBytes * mc.fault_us_per_page * 1e-3 / w;
  }
  /// First-touch cost of the cold fraction of `bytes` of input, ms.
  double ColdFaultMs(double bytes) const {
    const double cold = 1.0 - std::clamp(in.residency, 0.0, 1.0);
    return cold * bytes / kPageBytes * mc.fault_us_per_page * 1e-3 / w;
  }
  double SetupMs(double passes) const {
    return 0.05 + kWorkerSpawnMs * w + 0.005 * d + kPassMs * passes;
  }
  /// ns totals -> wall ms on w workers.
  double Par(double total_ns) const { return total_ns * kNsToMs / w; }
};

join::JoinParams ParamsFor(const WallInputs& in) {
  join::JoinParams p;
  p.m_rproc_bytes = in.m_rproc_bytes ? in.m_rproc_bytes : (4ull << 20);
  p.m_sproc_bytes = p.m_rproc_bytes;
  return p;
}

// Nested loops: pass 0 scans R_i, joins the R_{i,i} share immediately
// (random dereference into S_i's band) and scatters the remainder's refs
// into RP_i; pass 1 re-reads RP and dereferences the rest.
WallCost PredictNl(const Ctx& c) {
  WallCost wc;
  const double f_ii = std::min(1.0, std::max(1.0, c.in.skew) / c.d);
  const double n0 = c.nr * f_ii;        // joined in pass 0
  const double n1 = c.nr - n0;          // repartitioned, joined in pass 1
  const double s_band = c.sb / c.d;     // probes spread over one S_i
  wc.setup_ms = c.SetupMs(1 + c.phases);
  wc.partition_ms = c.Par(n1 * kRefBytes * c.copy);
  wc.probe_ms = c.Par(c.rb * c.seq                      // pass-0 R scan
                      + n1 * kRefBytes * c.seq          // pass-1 RP scan
                      + (n0 + n1) * c.RandNs(s_band))   // S dereferences
               * c.stretch;
  wc.fault_ms = c.ColdFaultMs(c.rb + c.sb) + c.TempFaultMs(n1 * kRefBytes);
  return wc;
}

// Sort-merge: scan R and scatter its refs into RS by target, sort runs,
// merge passes over the refs, then a single sequential sweep of S per
// partition. Comparison work is modeled
// as the classic total N*log2(N/D) regardless of the run shape (longer
// runs trade sort levels against merge levels one for one); what the
// memory budget buys is fewer merge-pass copies of RS.
WallCost PredictSm(const Ctx& c) {
  WallCost wc;
  const join::JoinParams p = ParamsFor(c.in);
  const uint64_t rs_objects =
      static_cast<uint64_t>(std::max(1.0, c.nr / c.d));
  const join::SortMergePlan plan = join::PlanSortMerge(
      p.m_rproc_bytes, static_cast<uint32_t>(kPageBytes), rs_objects, p);
  const double npass = static_cast<double>(plan.npass);
  wc.setup_ms = c.SetupMs(2 + c.phases + npass);
  const double refs = c.nr * kRefBytes;
  wc.partition_ms = c.Par(c.rb * c.seq + refs * c.copy);
  wc.build_ms = c.Par(c.nr * Log2AtLeast1(c.nr / c.d) * c.mc.sort_ns_per_cmp);
  wc.probe_ms = c.Par(npass * refs * (c.seq + c.copy)   // merge-pass copies
                      + refs * c.seq + c.sb * c.seq)    // final merge-join
               * c.stretch;
  // RS plus one merge double-buffer generation of temporaries.
  wc.fault_ms = c.ColdFaultMs(c.rb + c.sb) +
                c.TempFaultMs(refs * (1.0 + std::min(1.0, npass)));
  return wc;
}

// MPSM (DESIGN.md §7.7): pass 0 scans R and writes one 16-byte ref per
// object into its private run segment, pass 1 sorts the refs in runs of
// M_Rproc / 16, and the final pass reads the runs back and sweeps S once
// per run, in pointer order. No repartitioning and no merge.
WallCost PredictMpsm(const Ctx& c) {
  WallCost wc;
  const join::JoinParams p = ParamsFor(c.in);
  const double r_part = std::max(1.0, c.nr / c.d);
  const double run = std::min(
      r_part, std::max(1.0, static_cast<double>(p.m_rproc_bytes) / kRefBytes));
  const double runs = std::ceil(r_part / run);  // per partition
  wc.setup_ms = c.SetupMs(3);
  wc.partition_ms = c.Par(c.rb * c.seq + c.nr * kRefBytes * c.copy);
  wc.build_ms = c.Par(c.nr * Log2AtLeast1(run) * c.mc.sort_ns_per_cmp *
                      kSmallSortScale);
  wc.probe_ms = c.Par(c.nr * kRefBytes * c.seq       // ref runs read back
                      + runs * c.sb * c.seq)         // one S sweep per run
               * c.stretch;
  wc.fault_ms = c.ColdFaultMs(c.rb + c.sb) + c.TempFaultMs(c.nr * kRefBytes);
  return wc;
}

// Grace: scan R and scatter its refs into K monotone buckets per
// partition, then per bucket an in-memory hash build over the bucket's R
// share and one sequential, hash-probing sweep of S.
WallCost PredictGrace(const Ctx& c, bool hybrid) {
  WallCost wc;
  const join::JoinParams p = ParamsFor(c.in);
  const uint64_t rs_objects =
      static_cast<uint64_t>(std::max(1.0, c.nr / c.d));
  const join::GracePlan plan =
      join::PlanGrace(p.m_rproc_bytes, rs_objects, p);
  const double k = static_cast<double>(std::max<uint32_t>(1, plan.k_buckets));
  // Hybrid keeps bucket 0 resident: the fraction of R that fits the
  // per-partition budget never takes the scatter round trip.
  const double q =
      hybrid ? std::min(1.0, static_cast<double>(p.m_rproc_bytes) * c.d /
                                 (c.rb * p.fuzz))
             : 0.0;
  wc.setup_ms = c.SetupMs(2 + c.phases) + kBucketMs * k * c.d;
  const double spilled = c.nr * kRefBytes * (1.0 - q);
  wc.partition_ms = c.Par(c.rb * c.seq + spilled * c.copy);
  wc.build_ms = c.Par(c.nr * c.mc.hash_build_ns);
  wc.probe_ms = c.Par(c.sb * c.seq + c.ns * c.mc.hash_probe_ns) * c.stretch;
  // RS buckets plus the chained hash table's node array.
  wc.fault_ms =
      c.ColdFaultMs(c.rb + c.sb) + c.TempFaultMs(spilled + c.nr * 16.0);
  return wc;
}

// Index nested-loops: a Grace-style R scan and ref scatter, the
// (sptr, r_id) pair sort and leaf writes of the bulk build, then one
// sequential S sweep of point probes.
WallCost PredictInl(const Ctx& c) {
  WallCost wc;
  const double levels =
      std::max(1.0, std::ceil(std::log(std::max(2.0, c.nr)) /
                              std::log(kIndexFanout)));
  const double probe_ns =
      levels * c.mc.index_probe_ns_per_level * c.rand_remote;
  wc.setup_ms = c.SetupMs(2 + c.phases);
  wc.partition_ms = c.Par(c.rb * c.seq + c.nr * kRefBytes * c.copy);
  wc.build_ms = c.Par(c.nr * Log2AtLeast1(c.nr / c.d) *
                          c.mc.sort_ns_per_cmp * kSmallSortScale +
                      c.nr * kIndexEntryBytes * c.copy);
  wc.probe_ms = c.Par(c.sb * c.seq + c.ns * probe_ns) * c.stretch;
  wc.fault_ms = c.ColdFaultMs(c.rb + c.sb) +
                c.TempFaultMs(c.nr * (kRefBytes + kIndexEntryBytes));
  return wc;
}

}  // namespace

double MachineProfile::RandDerefNs(double band_bytes) const {
  if (rand_points.empty()) return 120.0;
  // DttCurve's axes are ours to define: band_blocks carries bytes,
  // ms_per_block carries nanoseconds per dereference.
  return DttCurve(rand_points).Ms(band_bytes);
}

WallCost PredictWall(join::Algorithm algorithm, const MachineProfile& machine,
                     const WallInputs& in) {
  const Ctx c(machine, in);
  switch (algorithm) {
    case join::Algorithm::kNestedLoops:
      return PredictNl(c);
    case join::Algorithm::kSortMerge:
      return PredictSm(c);
    case join::Algorithm::kMpsm:
      return PredictMpsm(c);
    case join::Algorithm::kGrace:
      return PredictGrace(c, /*hybrid=*/false);
    case join::Algorithm::kHybridHash:
      return PredictGrace(c, /*hybrid=*/true);
    case join::Algorithm::kIndexNestedLoops:
      return PredictInl(c);
  }
  return WallCost{};
}

}  // namespace mmjoin::model
