// The real-mmap join engine: correctness against the expected join, parity
// with the simulated workload (same seed => same join), parallel vs serial
// equivalence, exactness on recycled temporaries, and lifecycle hygiene.
#include "mmap/mmap_join.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>

#include "exec/real_backend.h"
#include "exec/temp_arena.h"
#include "join/drivers.h"
#include "mmap/mm_relation.h"
#include "obs/trace.h"
#include "rel/generator.h"
#include "scratch_dir.h"
#include "sim/sim_env.h"

namespace mmjoin::mm {
namespace {

class MmapJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<SegmentManager>(dir_);
  }

  MmWorkload Build(uint64_t n, uint32_t d, double theta = 0.0) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = n;
    rc.num_partitions = d;
    rc.zipf_theta = theta;
    auto w = BuildMmWorkload(mgr_.get(), "w", rc);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return std::move(w).value();
  }

  ScratchDir scratch_{"mmjoin"};
  std::string dir_;
  std::unique_ptr<SegmentManager> mgr_;
};

TEST_F(MmapJoinTest, NestedLoopsJoinsCorrectly) {
  const MmWorkload w = Build(8192, 4);
  auto r = MmNestedLoops(w);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->verified);
  EXPECT_EQ(r->output_count, 8192u);
  // Workers are bounded by the hardware: min(D, hardware_concurrency).
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(r->threads_used, std::min(4u, hw));
  EXPECT_GT(r->wall_ms, 0.0);
}

TEST_F(MmapJoinTest, MaxThreadsBoundsWorkersAndBatchesPartitions) {
  // D = 4 partitions on 2 workers: the workers share four partitions'
  // chains, exercising the batching path deterministically regardless of
  // the host's core count.
  const MmWorkload w = Build(8192, 4);
  MmJoinOptions opt;
  opt.max_threads = 2;
  for (auto fn : {MmNestedLoops, MmSortMerge, MmGrace, MmHybridHash}) {
    auto r = fn(w, opt);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->verified);
    EXPECT_EQ(r->threads_used, 2u);
  }
}

TEST_F(MmapJoinTest, HybridHashJoinsCorrectly) {
  const MmWorkload w = Build(8192, 4, 0.5);
  auto r = MmHybridHash(w);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->verified);
  EXPECT_EQ(r->output_count, 8192u);
}

TEST_F(MmapJoinTest, RealRunReportsPassMarksAndExportsMetrics) {
  const MmWorkload w = Build(8192, 4);
  auto r = MmGrace(w);
  ASSERT_TRUE(r.ok());
  // The unified drivers mark the same pass boundaries on both backends.
  ASSERT_GE(r->run.passes.size(), 4u);
  EXPECT_EQ(r->run.passes.front().label, "setup");

  obs::MetricsRegistry registry;
  r->ExportMetrics(&registry);
  EXPECT_EQ(registry.counter("join.runs").value(), 1u);
  EXPECT_EQ(registry.counter("join.output_objects").value(),
            r->output_count);
  EXPECT_EQ(registry.histogram("join.elapsed_ms").count(), 1u);
  for (const auto& pass : r->run.passes) {
    EXPECT_EQ(registry.histogram("pass." + pass.label + ".ms").count(), 1u)
        << pass.label;
  }
}

TEST_F(MmapJoinTest, RealRunEmitsLoadableTrace) {
  const MmWorkload w = Build(4096, 2);
  obs::TraceRecorder trace;
  MmJoinOptions opt;
  opt.trace = &trace;
  auto r = MmNestedLoops(w, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->verified);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(trace.open_spans(), 0u);
  // Pass spans land on the driver track; the JSON is Chrome/Perfetto shaped.
  EXPECT_GE(trace.CountEvents("pass0"), 1u);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(MmapJoinTest, SortMergeJoinsCorrectly) {
  const MmWorkload w = Build(8192, 4, 0.5);
  auto r = MmSortMerge(w);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->verified);
}

TEST_F(MmapJoinTest, GraceJoinsCorrectly) {
  const MmWorkload w = Build(8192, 4, 0.5);
  auto r = MmGrace(w);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->verified);
}

TEST_F(MmapJoinTest, SerialAndParallelAgree) {
  const MmWorkload w = Build(16384, 4);
  MmJoinOptions serial;
  serial.max_threads = 1;
  for (auto fn : {MmNestedLoops, MmSortMerge, MmGrace, MmHybridHash}) {
    auto par = fn(w, MmJoinOptions{});
    auto ser = fn(w, serial);
    ASSERT_TRUE(par.ok() && ser.ok());
    EXPECT_EQ(par->output_checksum, ser->output_checksum);
    EXPECT_TRUE(par->verified);
    EXPECT_TRUE(ser->verified);
    EXPECT_EQ(ser->threads_used, 1u);
  }
}

TEST_F(MmapJoinTest, SinglePartitionWorks) {
  const MmWorkload w = Build(2048, 1);
  for (auto fn : {MmNestedLoops, MmSortMerge, MmGrace, MmHybridHash}) {
    auto r = fn(w, MmJoinOptions{});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->verified);
  }
}

TEST_F(MmapJoinTest, GraceOptionsHonoured) {
  const MmWorkload w = Build(4096, 2);
  MmJoinOptions opt;
  opt.k_buckets = 3;
  opt.tsize = 17;
  auto r = MmGrace(w, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->verified);
}

TEST_F(MmapJoinTest, MatchesSimulatedWorkloadJoin) {
  // Same seed and shape: the mmap workload's expected join must equal the
  // simulated workload's expected join, pointer for pointer.
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 4096;
  rc.num_partitions = 4;
  rc.seed = 31337;

  auto mm_w = BuildMmWorkload(mgr_.get(), "parity", rc);
  ASSERT_TRUE(mm_w.ok());

  sim::SimEnv env(sim::MachineConfig::SequentSymmetry1996());
  auto sim_w = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(sim_w.ok());

  EXPECT_EQ(mm_w->expected_checksum, sim_w->expected_checksum);
  EXPECT_EQ(mm_w->expected_output_count, sim_w->expected_output_count);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mm_w->counts[i], sim_w->counts[i]);
  }
}

TEST_F(MmapJoinTest, WorkloadPersistsAcrossReopen) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 1024;
  rc.num_partitions = 2;
  uint64_t expected;
  {
    auto w = BuildMmWorkload(mgr_.get(), "persist", rc);
    ASSERT_TRUE(w.ok());
    expected = w->expected_checksum;
    for (auto& seg : w->r_segs) ASSERT_TRUE(seg.Sync().ok());
    for (auto& seg : w->s_segs) ASSERT_TRUE(seg.Sync().ok());
  }  // all mappings dropped
  // Reopen the raw segments and re-join by direct traversal.
  uint64_t checksum = 0;
  for (uint32_t i = 0; i < 2; ++i) {
    auto r_seg = mgr_->OpenSegment("persist_r" + std::to_string(i));
    ASSERT_TRUE(r_seg.ok());
    const auto* objs = reinterpret_cast<const rel::RObject*>(
        r_seg->Resolve(r_seg->root()));
    const uint64_t count = 512;
    for (uint64_t k = 0; k < count; ++k) {
      const rel::SPtr sp = rel::SPtr::Unpack(objs[k].sptr);
      checksum +=
          rel::OutputDigest(objs[k].id, rel::SKeyFor(sp.partition, sp.index));
    }
  }
  EXPECT_EQ(checksum, expected);
}

TEST_F(MmapJoinTest, DeleteWorkloadRemovesSegments) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 512;
  rc.num_partitions = 2;
  {
    auto w = BuildMmWorkload(mgr_.get(), "gone", rc);
    ASSERT_TRUE(w.ok());
  }
  EXPECT_TRUE(mgr_->Exists("gone_r0"));
  ASSERT_TRUE(DeleteMmWorkload(mgr_.get(), "gone", 2).ok());
  EXPECT_FALSE(mgr_->Exists("gone_r0"));
  EXPECT_FALSE(mgr_->Exists("gone_s1"));
}

TEST_F(MmapJoinTest, DuplicatePrefixRejected) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 512;
  rc.num_partitions = 2;
  auto a = BuildMmWorkload(mgr_.get(), "dup", rc);
  ASSERT_TRUE(a.ok());
  auto b = BuildMmWorkload(mgr_.get(), "dup", rc);
  EXPECT_FALSE(b.ok());
}

TEST_F(MmapJoinTest, AllAlgorithmsAgreeOnChecksum) {
  const MmWorkload w = Build(20000, 4, 0.7);
  auto nl = MmNestedLoops(w);
  auto sm = MmSortMerge(w);
  auto gr = MmGrace(w);
  auto hh = MmHybridHash(w);
  ASSERT_TRUE(nl.ok() && sm.ok() && gr.ok() && hh.ok());
  EXPECT_EQ(nl->output_checksum, sm->output_checksum);
  EXPECT_EQ(sm->output_checksum, gr->output_checksum);
  EXPECT_EQ(gr->output_checksum, hh->output_checksum);
  EXPECT_TRUE(nl->verified && sm->verified && gr->verified &&
              hh->verified);
}

TEST_F(MmapJoinTest, DriversStayExactOnRecycledTemporaries) {
  // Temporaries come from the process-wide arena, so each driver receives
  // blocks that still hold another driver's tuples. All six drivers back to
  // back, twice and in two orders, stay exact only if no driver reads a
  // temporary before writing it.
  exec::TempArena::Global().Trim(0);  // the first run maps fresh blocks
  const MmWorkload w = Build(1 << 17, 4, 0.5);
  using join::Algorithm;
  const std::vector<std::vector<Algorithm>> orders = {
      {Algorithm::kNestedLoops, Algorithm::kSortMerge, Algorithm::kMpsm,
       Algorithm::kGrace, Algorithm::kHybridHash,
       Algorithm::kIndexNestedLoops},
      {Algorithm::kIndexNestedLoops, Algorithm::kGrace, Algorithm::kSortMerge,
       Algorithm::kHybridHash, Algorithm::kMpsm, Algorithm::kNestedLoops}};
  std::vector<uint64_t> nl_setup_faults;
  for (const std::vector<Algorithm>& order : orders) {
    for (Algorithm a : order) {
      const char* name = join::AlgorithmName(a);
      // The per-driver entry point, which must report its own driver.
      auto r = join::Driver(a).real(w, MmJoinOptions{});
      ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      EXPECT_EQ(r->algorithm, a) << name;
      EXPECT_TRUE(r->verified) << name;
      EXPECT_EQ(r->output_count, w.expected_output_count) << name;
      EXPECT_EQ(r->output_checksum, w.expected_checksum) << name;
      if (a == Algorithm::kNestedLoops) {
        ASSERT_EQ(r->run.passes.front().label, "setup");
        nl_setup_faults.push_back(r->run.passes.front().faults);
      }
    }
  }
  // The first nested-loops run pre-faults its fresh RP blocks in setup —
  // at least half the pages its RP bands of 16-byte refs span — and the
  // second gets them back populated and skips the pre-fault: it takes
  // fewer faults than a tenth of those pages.
  uint64_t foreign = 0;
  for (uint32_t i = 0; i < w.counts.size(); ++i) {
    for (uint32_t j = 0; j < w.counts.size(); ++j) {
      if (j != i) foreign += w.counts[i][j];
    }
  }
  const uint64_t rp_pages = foreign * sizeof(exec::RealBackend::Tuple) / 4096;
  ASSERT_EQ(nl_setup_faults.size(), 2u);
  EXPECT_GT(nl_setup_faults[0], rp_pages / 2);
  EXPECT_LT(nl_setup_faults[1] * 10, rp_pages)
      << "first setup faults " << nl_setup_faults[0] << ", second "
      << nl_setup_faults[1];
}

}  // namespace
}  // namespace mmjoin::mm
