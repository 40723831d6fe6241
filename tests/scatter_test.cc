// The software write-combining scatter layer and NUMA placement options:
// ScatterBuffer staging/flush semantics, CopyTuples' non-temporal path,
// buffered-vs-direct bit-identity across every real join x scatter mode x
// schedule x worker count, NUMA option fallback on non-NUMA hosts, the
// scatter/numa metrics surface, and the RUSAGE_THREAD per-pass fault
// accounting invariant (sum of per-pass faults == total faults).
#include "exec/scatter.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exec/numa.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "obs/metrics.h"
#include "rel/relation.h"

namespace mmjoin::exec {
namespace {

rel::RObject MakeObj(uint64_t id) {
  rel::RObject obj;
  obj.id = id;
  obj.sptr = id * 31 + 7;
  std::memset(obj.payload, static_cast<int>(id & 0xff), sizeof(obj.payload));
  return obj;
}

/// Sink that records (dest, run length) arrivals and reassembles each
/// destination's byte stream, so tests can compare against direct order.
struct RecordingSink {
  std::vector<std::vector<rel::RObject>> streams;
  std::vector<std::pair<uint32_t, uint64_t>> runs;

  explicit RecordingSink(uint32_t n_dests) : streams(n_dests) {}

  ScatterSink fn() {
    return [this](uint32_t dest, const rel::RObject* run, uint64_t n) {
      runs.emplace_back(dest, n);
      streams[dest].insert(streams[dest].end(), run, run + n);
    };
  }
};

bool SameObjects(const std::vector<rel::RObject>& a,
                 const std::vector<rel::RObject>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(rel::RObject)) ==
         0;
}

// ---------------------------------------------------------------------------
// ScatterBuffer unit tests.
// ---------------------------------------------------------------------------

TEST(ScatterBufferTest, PassThroughForwardsEveryTupleAsRunOfOne) {
  ScatterBuffer buf;
  RecordingSink sink(3);
  buf.Begin(3, /*capacity=*/0, sink.fn());
  for (uint64_t k = 0; k < 10; ++k) buf.Add(k % 3, MakeObj(k));
  buf.Flush();
  EXPECT_EQ(sink.runs.size(), 10u);
  for (const auto& [dest, n] : sink.runs) EXPECT_EQ(n, 1u);
  // Pass-through stages nothing, so the staging telemetry stays zero.
  EXPECT_EQ(buf.stats().tuples, 0u);
  EXPECT_EQ(buf.stats().flushes, 0u);
  EXPECT_EQ(buf.stats().partial_flushes, 0u);
}

TEST(ScatterBufferTest, BufferedPreservesPerDestinationScanOrder) {
  const uint32_t kDests = 5;
  const uint32_t kCap = 4;
  RecordingSink direct(kDests), buffered(kDests);

  std::vector<std::pair<uint32_t, rel::RObject>> tuples;
  for (uint64_t k = 0; k < 103; ++k) {
    tuples.emplace_back(static_cast<uint32_t>((k * 7 + k / 13) % kDests),
                        MakeObj(k));
  }

  {
    ScatterBuffer buf;
    buf.Begin(kDests, 0, direct.fn());
    for (const auto& [dest, obj] : tuples) buf.Add(dest, obj);
    buf.Flush();
  }
  ScatterBuffer buf;
  buf.Begin(kDests, kCap, buffered.fn());
  for (const auto& [dest, obj] : tuples) buf.Add(dest, obj);
  buf.Flush();

  // Byte-identical per destination, even though run boundaries differ.
  for (uint32_t dest = 0; dest < kDests; ++dest) {
    EXPECT_TRUE(SameObjects(direct.streams[dest], buffered.streams[dest]))
        << "dest=" << dest;
  }
  EXPECT_EQ(buf.stats().tuples, tuples.size());
  uint64_t full = 0, partial_tuples = 0;
  for (const auto& [dest, n] : buffered.runs) {
    if (n == kCap) {
      ++full;
    } else {
      partial_tuples += n;
    }
  }
  EXPECT_EQ(buf.stats().flushes, full);
  EXPECT_EQ(full * kCap + partial_tuples, tuples.size());
}

TEST(ScatterBufferTest, AddRunMatchesPerTupleAddsByteForByte) {
  const uint32_t kDests = 3;
  const uint32_t kCap = 4;
  std::vector<rel::RObject> run;
  for (uint64_t k = 100; k < 111; ++k) run.push_back(MakeObj(k));

  // Pass-through: the run must arrive as per-tuple forwards — exactly the
  // historical append pattern the direct baseline preserves.
  {
    ScatterBuffer buf;
    RecordingSink sink(kDests);
    buf.Begin(kDests, 0, sink.fn());
    buf.AddRun(1, run.data(), run.size());
    buf.Flush();
    EXPECT_EQ(sink.runs.size(), run.size());
    for (const auto& [dest, n] : sink.runs) EXPECT_EQ(n, 1u);
    EXPECT_TRUE(SameObjects(sink.streams[1], run));
  }

  // Buffered: staged tuples precede the run (scan order), and the run
  // itself arrives as ONE bulk sink call — no re-staging.
  ScatterBuffer buf;
  RecordingSink sink(kDests);
  buf.Begin(kDests, kCap, sink.fn());
  buf.Add(1, MakeObj(1));
  buf.Add(1, MakeObj(2));
  buf.Add(2, MakeObj(3));
  buf.AddRun(1, run.data(), run.size());
  buf.AddRun(1, run.data(), 0);  // empty run is a no-op
  buf.Flush();

  std::vector<rel::RObject> want = {MakeObj(1), MakeObj(2)};
  want.insert(want.end(), run.begin(), run.end());
  EXPECT_TRUE(SameObjects(sink.streams[1], want));
  EXPECT_TRUE(SameObjects(sink.streams[2], {MakeObj(3)}));
  // dest 1 drains as: partial slab of 2, then the bulk run of 11.
  ASSERT_GE(sink.runs.size(), 2u);
  EXPECT_EQ(sink.runs[0], (std::pair<uint32_t, uint64_t>{1u, 2u}));
  EXPECT_EQ(sink.runs[1],
            (std::pair<uint32_t, uint64_t>{1u, run.size()}));
  EXPECT_EQ(buf.stats().tuples, 2u + 1u + run.size());
}

TEST(ScatterBufferTest, EpilogueDrainsPartialSlabsInAscendingDestOrder) {
  ScatterBuffer buf;
  RecordingSink sink(4);
  buf.Begin(4, /*capacity=*/8, sink.fn());
  // Stage into dests 3, 1, 0 (none fills); dest 2 stays empty.
  buf.Add(3, MakeObj(1));
  buf.Add(1, MakeObj(2));
  buf.Add(1, MakeObj(3));
  buf.Add(0, MakeObj(4));
  buf.Flush();
  ASSERT_EQ(sink.runs.size(), 3u);
  EXPECT_EQ(sink.runs[0], (std::pair<uint32_t, uint64_t>{0, 1}));
  EXPECT_EQ(sink.runs[1], (std::pair<uint32_t, uint64_t>{1, 2}));
  EXPECT_EQ(sink.runs[2], (std::pair<uint32_t, uint64_t>{3, 1}));
  EXPECT_EQ(buf.stats().partial_flushes, 3u);
  EXPECT_EQ(buf.stats().flushes, 0u);
}

TEST(ScatterBufferTest, EmptyMorselFlushIsANoOp) {
  ScatterBuffer buf;
  RecordingSink sink(2);
  buf.Begin(2, 16, sink.fn());
  buf.Flush();
  EXPECT_TRUE(sink.runs.empty());
  EXPECT_EQ(buf.stats().partial_flushes, 0u);
  // Flush on an inactive buffer (the backend's per-morsel safety net when
  // a body never scattered) must also be a no-op.
  buf.Flush();
  EXPECT_TRUE(sink.runs.empty());
}

TEST(ScatterBufferTest, StorageIsRetainedAcrossMorsels) {
  ScatterBuffer buf;
  RecordingSink a(2), b(8);
  buf.Begin(2, 4, a.fn());
  buf.Add(0, MakeObj(1));
  buf.Flush();
  // Re-arm with more destinations: prior staged state must not leak.
  buf.Begin(8, 4, b.fn());
  buf.Add(7, MakeObj(2));
  buf.Flush();
  ASSERT_EQ(b.runs.size(), 1u);
  EXPECT_EQ(b.runs[0].first, 7u);
  EXPECT_EQ(b.streams[7][0].id, 2u);
}

TEST(CopyTuplesTest, StreamAndMemcpyProduceIdenticalBytes) {
  std::vector<rel::RObject> src;
  for (uint64_t k = 0; k < 64; ++k) src.push_back(MakeObj(k));
  // 16-aligned destination: eligible for the non-temporal path.
  alignas(64) static rel::RObject dst_stream[64];
  alignas(64) static rel::RObject dst_copy[64];
  CopyTuples(dst_stream, src.data(), src.size(), /*stream=*/true);
  ScatterFence();
  CopyTuples(dst_copy, src.data(), src.size(), /*stream=*/false);
  EXPECT_EQ(std::memcmp(dst_stream, dst_copy, sizeof(dst_copy)), 0);
  // Unaligned destination: the stream path must fall back, not fault.
  std::vector<uint8_t> raw(sizeof(rel::RObject) + 8);
  CopyTuples(raw.data() + (reinterpret_cast<uintptr_t>(raw.data()) % 16 == 0
                               ? 8
                               : 0),
             src.data(), 1, /*stream=*/true);
}

// ---------------------------------------------------------------------------
// Identity across the real joins: scatter x schedule x workers, plus the
// NUMA modes, must all reproduce the workload's expected count/checksum.
// ---------------------------------------------------------------------------

class ScatterJoinIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "scatter_" + std::to_string(::getpid()) +
           "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  mm::MmWorkload Build(double theta) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = 8192;
    rc.num_partitions = 8;
    rc.zipf_theta = theta;
    auto w = mm::BuildMmWorkload(mgr_.get(), "w" + std::to_string(builds_++),
                                 rc);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return std::move(w).value();
  }

  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
  int builds_ = 0;
};

using MmJoinFn = StatusOr<mm::MmJoinResult> (*)(const mm::MmWorkload&,
                                                const mm::MmJoinOptions&);
constexpr MmJoinFn kJoins[] = {mm::MmNestedLoops, mm::MmSortMerge,
                               mm::MmGrace, mm::MmHybridHash};

TEST_F(ScatterJoinIdentityTest, ScatterScheduleWorkerMatrix) {
  for (double theta : {0.0, 1.1}) {
    const mm::MmWorkload w = Build(theta);
    for (MmJoinFn join : kJoins) {
      for (ScatterMode scatter : {ScatterMode::kDirect, ScatterMode::kBuffered,
                                  ScatterMode::kStream}) {
        for (Schedule schedule : {Schedule::kStatic, Schedule::kStealing}) {
          for (uint32_t workers : {1u, 2u, 8u}) {
            mm::MmJoinOptions opt;
            opt.scatter = scatter;
            opt.schedule = schedule;
            opt.max_threads = workers;
            auto r = join(w, opt);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            // verified == matched the workload's expected count/checksum,
            // so every combination passing pins the identity against the
            // direct baseline (and the simulator, via cross_backend_test).
            EXPECT_TRUE(r->verified)
                << "theta=" << theta
                << " scatter=" << ScatterModeName(scatter)
                << " schedule=" << ScheduleName(schedule)
                << " workers=" << workers;
            EXPECT_EQ(r->output_count, w.expected_output_count);
            EXPECT_EQ(r->output_checksum, w.expected_checksum);
            if (scatter == ScatterMode::kDirect) {
              EXPECT_EQ(r->run.scatter_tuples, 0u);
              EXPECT_EQ(r->run.scatter_flushes, 0u);
            } else {
              // Every driver routes its partition passes through the
              // staging path now, so tuples must flow regardless of
              // schedule or worker count.
              EXPECT_GT(r->run.scatter_tuples, 0u);
            }
          }
        }
      }
    }
  }
}

TEST_F(ScatterJoinIdentityTest, ScatterTuplesSweepDoesNotChangeResults) {
  const mm::MmWorkload w = Build(1.1);
  // 1 staged tuple (degenerate: every Add flushes), odd sizes, the max,
  // and an over-limit value that must clamp rather than misbehave.
  for (uint32_t tuples : {1u, 3u, 16u, 256u, 100000u}) {
    for (MmJoinFn join : kJoins) {
      mm::MmJoinOptions opt;
      opt.scatter = ScatterMode::kBuffered;
      opt.scatter_tuples = tuples;
      auto r = join(w, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified) << "scatter_tuples=" << tuples;
      EXPECT_EQ(r->output_count, w.expected_output_count);
      EXPECT_EQ(r->output_checksum, w.expected_checksum);
    }
  }
}

TEST_F(ScatterJoinIdentityTest, NumaModesFallBackGracefullyAndVerify) {
  const mm::MmWorkload w = Build(0.0);
  const uint32_t nodes = DetectNumaNodes();
  EXPECT_GE(nodes, 1u);
  for (NumaMode numa :
       {NumaMode::kNone, NumaMode::kInterleave, NumaMode::kLocal}) {
    for (MmJoinFn join : kJoins) {
      mm::MmJoinOptions opt;
      opt.numa = numa;
      auto r = join(w, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified) << "numa=" << NumaModeName(numa);
      // Placement is best-effort but must never error out on this host:
      // single-node machines degrade to counted no-ops.
      EXPECT_TRUE(r->numa_status.ok()) << r->numa_status.ToString();
      EXPECT_EQ(r->run.numa_mbind_errors, 0u);
      if (numa == NumaMode::kNone) {
        EXPECT_EQ(r->run.numa_nodes, 0u);
        EXPECT_EQ(r->run.numa_mbind_calls, 0u);
        EXPECT_EQ(r->run.numa_first_touch_pages, 0u);
      } else {
        EXPECT_EQ(r->run.numa_nodes, nodes);
        if (nodes <= 1) {
          EXPECT_EQ(r->run.numa_mbind_calls, 0u);
        }
        if (numa == NumaMode::kLocal) {
          // First touch runs even on one node (it is just a pre-fault).
          EXPECT_GT(r->run.numa_first_touch_pages, 0u);
        }
      }
    }
  }
}

TEST(NumaUnitTest, BindInterleavedSingleNodeIsACountedNoOp) {
  alignas(4096) static char buf[4096];
  bool applied = true;
  EXPECT_TRUE(BindInterleaved(buf, sizeof(buf), 1, &applied).ok());
  EXPECT_FALSE(applied);
  applied = true;
  EXPECT_TRUE(BindInterleaved(buf, 0, 4, &applied).ok());
  EXPECT_FALSE(applied);
}

// ---------------------------------------------------------------------------
// Metrics surface: scatter/numa counters appear exactly when active.
// ---------------------------------------------------------------------------

TEST_F(ScatterJoinIdentityTest, MetricsExportMatchesOptions) {
  const mm::MmWorkload w = Build(0.0);

  mm::MmJoinOptions buffered;
  buffered.scatter = ScatterMode::kBuffered;
  buffered.numa = NumaMode::kLocal;
  auto r = mm::MmGrace(w, buffered);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  obs::MetricsRegistry reg;
  r->ExportMetrics(&reg);
  EXPECT_GT(reg.counter("join.scatter.flushes").value() +
                reg.counter("join.scatter.partial_flushes").value(),
            0u);
  EXPECT_EQ(reg.counter("join.scatter.tuples").value(),
            r->run.scatter_tuples);
  EXPECT_GE(reg.counter("join.numa.nodes").value(), 1u);
  EXPECT_EQ(reg.counter("join.numa.first_touch_pages").value(),
            r->run.numa_first_touch_pages);

  // Direct + numa=none: the blocks are gated out entirely, so a fresh
  // registry stays free of scatter/numa names (the simulated dumps keep
  // their historical shape).
  mm::MmJoinOptions direct;
  direct.scatter = ScatterMode::kDirect;
  auto rd = mm::MmGrace(w, direct);
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  obs::MetricsRegistry reg2;
  rd->ExportMetrics(&reg2);
  for (const auto& [name, counter] : reg2.counters()) {
    EXPECT_EQ(name.rfind("join.scatter.", 0), std::string::npos) << name;
    EXPECT_EQ(name.rfind("join.numa.", 0), std::string::npos) << name;
  }
}

// The density hint: a pass whose morsels cannot fill even one slab per
// destination must bypass staging (per-tuple forwarding) instead of
// draining every slab partial. At K=64 the Grace pass-1 bucket scatter
// spreads its |RP_{i,j}| = 128-tuple morsels to 2 tuples/bucket — below
// any slab capacity — so only pass 0 stages; at K=2 the same morsels put
// 64 tuples on each bucket and pass 1 stages too. Results must be
// identical either way.
TEST_F(ScatterJoinIdentityTest, SparseMorselsBypassStaging) {
  const mm::MmWorkload w = Build(0.0);
  uint64_t staged[2];
  int idx = 0;
  for (uint32_t k_buckets : {64u, 2u}) {
    mm::MmJoinOptions opt;
    opt.scatter = ScatterMode::kBuffered;
    opt.k_buckets = k_buckets;
    auto r = mm::MmGrace(w, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->verified) << "k_buckets=" << k_buckets;
    EXPECT_EQ(r->output_count, w.expected_output_count);
    EXPECT_EQ(r->output_checksum, w.expected_checksum);
    EXPECT_GT(r->run.scatter_tuples, 0u);
    staged[idx++] = r->run.scatter_tuples;
  }
  // Bypassed pass-1 tuples are forwarded, not staged, so the sparse run
  // routes strictly fewer tuples through the slabs than the dense one.
  EXPECT_LT(staged[0], staged[1]);
}

// ---------------------------------------------------------------------------
// Per-pass fault accounting: with RUSAGE_THREAD the per-pass deltas must
// sum exactly to the total (the process-wide RUSAGE_SELF counter made
// concurrent passes double-count).
// ---------------------------------------------------------------------------

TEST_F(ScatterJoinIdentityTest, PassFaultsSumToTotalFaults) {
  const mm::MmWorkload w = Build(1.1);
  for (MmJoinFn join : kJoins) {
    for (uint32_t workers : {1u, 8u}) {
      mm::MmJoinOptions opt;
      opt.max_threads = workers;
      opt.schedule = Schedule::kStealing;
      auto r = join(w, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      uint64_t sum = 0;
      for (const auto& pass : r->run.passes) sum += pass.faults;
      EXPECT_EQ(sum, r->run.faults) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace mmjoin::exec
