// Index nested-loops driver (EXT-8): identity across every execution
// configuration, selective-join behavior, and the index telemetry.
//
// The driver repartitions exactly like Grace, then bulk-builds a static
// per-partition B+-tree over the repartitioned references and probes it
// once per morsel of leaves: one descent, then a scan of the morsel's key
// range.
// Like every other driver it is ONE template over the backend concept, so
// sim and real runs — at any morsel size — must produce the identical
// verified join.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "join/index_nl.h"
#include "join/join_common.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "rel/generator.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

class IndexJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : test_name) {
      if (c == '/') c = '_';
    }
    dir_ = ::testing::TempDir() + "ixjoin_" + std::to_string(::getpid()) +
           "_" + test_name;
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  static rel::RelationConfig Shape(uint64_t r, uint64_t s, uint32_t d,
                                   double theta, uint64_t seed) {
    rel::RelationConfig rc;
    rc.r_objects = r;
    rc.s_objects = s;
    rc.num_partitions = d;
    rc.zipf_theta = theta;
    rc.seed = seed;
    return rc;
  }

  StatusOr<join::JoinRunResult> RunSim(const rel::RelationConfig& rc,
                                       const join::JoinParams& params) {
    sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
    mc.num_disks = rc.num_partitions;
    sim::SimEnv env(mc);
    auto workload = rel::BuildWorkload(&env, rc);
    if (!workload.ok()) return workload.status();
    return join::RunIndexNestedLoops(&env, *workload, params);
  }

  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

TEST_F(IndexJoinTest, RealMatchesSimulator) {
  const rel::RelationConfig rc = Shape(6000, 6000, 3, 0.6, 2026'08'08);
  auto sim_result = RunSim(rc, join::JoinParams{});
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  ASSERT_TRUE(sim_result->verified);

  auto workload = mm::BuildMmWorkload(mgr_.get(), "matrix", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto result = mm::MmIndexNestedLoops(*workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->verified);
  EXPECT_EQ(result->output_count, sim_result->output_count);
  EXPECT_EQ(result->output_checksum, sim_result->output_checksum);
}

TEST_F(IndexJoinTest, SelectiveJoinProbesEverySButMatchesFew) {
  // |R| << |S|: most S tuples have no referencing R. The index answers
  // those probes without ever dereferencing the S object — the telemetry
  // shows every S probed but only the matched subset producing output.
  const rel::RelationConfig rc = Shape(1000, 16000, 2, 0.0, 31);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "selective", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  auto result = mm::MmIndexNestedLoops(*workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->verified);

  const join::JoinRunResult& run = result->run;
  EXPECT_EQ(run.index_entries, rc.r_objects);
  EXPECT_EQ(run.index_probes, rc.s_objects);
  EXPECT_LE(run.index_matches, rc.r_objects);
  EXPECT_GT(run.index_matches, 0u);
  // Strictly selective: far fewer matched probes than probes issued.
  EXPECT_LT(run.index_matches, run.index_probes / 4);
  EXPECT_EQ(run.output_count, rc.r_objects);  // every R finds its S
}

TEST_F(IndexJoinTest, SkewAndDuplicatesStillExact) {
  // Heavy zipf skew concentrates many R references on few S objects —
  // duplicate key runs in the leaf level, including runs that span leaf
  // windows. When a morsel starts at such a run, the descent must land in
  // the run's first window, below every separator equal to the low key.
  const rel::RelationConfig rc = Shape(12000, 2000, 2, 1.1, 404);
  auto sim_result = RunSim(rc, join::JoinParams{});
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  ASSERT_TRUE(sim_result->verified);

  auto workload = mm::BuildMmWorkload(mgr_.get(), "skew", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto result = mm::MmIndexNestedLoops(*workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->verified);
  EXPECT_EQ(result->output_count, sim_result->output_count);
  EXPECT_EQ(result->output_checksum, sim_result->output_checksum);
  EXPECT_EQ(result->run.index_entries, rc.r_objects);
}

TEST_F(IndexJoinTest, RangeProbeExactAtMorselBoundaries) {
  // θ=1.1 with |R| > |S| makes duplicate runs span leaf windows. Morsel
  // sizes around the leaf window (16 entries) put morsel starts inside and
  // at the edges of those runs, and a size of 1 probes every S tuple as
  // its own range. Every run must match the simulator's join, and count
  // each referenced S object as one match.
  const rel::RelationConfig rc = Shape(12000, 2000, 2, 1.1, 404);
  auto sim_result = RunSim(rc, join::JoinParams{});
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  ASSERT_TRUE(sim_result->verified);

  auto workload = mm::BuildMmWorkload(mgr_.get(), "morsels", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  std::set<uint64_t> referenced;
  for (uint32_t i = 0; i < rc.num_partitions; ++i) {
    for (uint64_t k = 0; k < workload->r_count[i]; ++k) {
      referenced.insert(workload->RObjects(i)[k].sptr);
    }
  }
  EXPECT_EQ(sim_result->index_matches, referenced.size());

  for (uint64_t morsel : {1, 7, 16, 17, 0}) {
    SCOPED_TRACE(testing::Message() << "morsel_tuples=" << morsel);
    mm::MmJoinOptions options;
    options.morsel_tuples = morsel;
    auto result = mm::MmIndexNestedLoops(*workload, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->verified);
    EXPECT_EQ(result->output_count, sim_result->output_count);
    EXPECT_EQ(result->output_checksum, sim_result->output_checksum);
    EXPECT_EQ(result->run.index_matches, referenced.size());
    EXPECT_EQ(result->run.index_probes, rc.s_objects);
  }
}

TEST_F(IndexJoinTest, EmptyLeafArrayStillExact) {
  // Four R objects over four partitions leave some RS_i empty (the guard
  // below checks it), so that index has no leaves and every probe of S_i
  // returns at once.
  const rel::RelationConfig rc = Shape(4, 4096, 4, 0.0, 81);
  auto sim_result = RunSim(rc, join::JoinParams{});
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  ASSERT_TRUE(sim_result->verified);

  auto workload = mm::BuildMmWorkload(mgr_.get(), "empty", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  bool some_empty = false;
  for (uint32_t i = 0; i < rc.num_partitions; ++i) {
    uint64_t rs = 0;
    for (uint32_t j = 0; j < rc.num_partitions; ++j) {
      rs += workload->counts[j][i];
    }
    some_empty |= rs == 0;
  }
  ASSERT_TRUE(some_empty);

  for (uint64_t morsel : {1, 0}) {
    SCOPED_TRACE(testing::Message() << "morsel_tuples=" << morsel);
    mm::MmJoinOptions options;
    options.morsel_tuples = morsel;
    auto result = mm::MmIndexNestedLoops(*workload, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->verified);
    EXPECT_EQ(result->output_count, sim_result->output_count);
    EXPECT_EQ(result->output_checksum, sim_result->output_checksum);
    EXPECT_EQ(result->run.index_entries, rc.r_objects);
    EXPECT_EQ(result->run.index_probes, rc.s_objects);
    EXPECT_EQ(result->run.index_matches, sim_result->index_matches);
  }
}

TEST_F(IndexJoinTest, SinglePartitionAndSingleBucket) {
  // Degenerate plans: D=1 (no repartition traffic) and a forced K=1 (the
  // whole partition is one sorted run) must still verify.
  {
    const rel::RelationConfig rc = Shape(3000, 3000, 1, 0.5, 51);
    auto workload = mm::BuildMmWorkload(mgr_.get(), "d1", rc);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    auto result = mm::MmIndexNestedLoops(*workload);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->verified);
  }
  {
    const rel::RelationConfig rc = Shape(3000, 3000, 2, 0.5, 52);
    auto workload = mm::BuildMmWorkload(mgr_.get(), "k1", rc);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    mm::MmJoinOptions options;
    options.k_buckets = 1;
    auto result = mm::MmIndexNestedLoops(*workload, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->verified);
  }
}

TEST_F(IndexJoinTest, PassStructure) {
  // The driver's pass marks: setup, the two Grace-style partition passes,
  // then index build and probe.
  const rel::RelationConfig rc = Shape(2048, 2048, 2, 0.0, 61);
  auto sim_result = RunSim(rc, join::JoinParams{});
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  std::vector<std::string> labels;
  for (const auto& pass : sim_result->passes) labels.push_back(pass.label);
  const std::vector<std::string> expected = {"setup", "pass0", "pass1",
                                             "index-build", "index-probe"};
  EXPECT_EQ(labels, expected);
}

TEST_F(IndexJoinTest, MetricsExportIndexCounters) {
  const rel::RelationConfig rc = Shape(1024, 1024, 2, 0.0, 71);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "metrics", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto result = mm::MmIndexNestedLoops(*workload);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  obs::MetricsRegistry registry;
  result->ExportMetrics(&registry);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("join.index.entries"), std::string::npos);
  EXPECT_NE(json.find("join.index.probes"), std::string::npos);
  EXPECT_NE(json.find("join.index.matches"), std::string::npos);
}

}  // namespace
}  // namespace mmjoin
