// Index nested-loops driver (EXT-8): identity across every execution
// configuration, selective-join behavior, and the index telemetry.
//
// The driver repartitions exactly like Grace, sorts each RS_i in place into
// one sorted leaf array, and probes it with one forward scan per morsel of
// leaves, each morsel cut where the key changes; ProbeIndex is also driven
// directly over hand-built leaves, sorted and not.
// Like every other driver it is ONE template over the backend concept, so
// sim and real runs — at any morsel size — must produce the identical
// verified join.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "exec/op/stages.h"
#include "exec/real_backend.h"
#include "join/index_nl.h"
#include "join/join_common.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "rel/generator.h"
#include "scratch_dir.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

class IndexJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
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

  ScratchDir scratch_{"ixjoin"};
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
  // long duplicate key runs in the sorted leaves. A run that crosses a
  // morsel boundary belongs to the morsel it starts in.
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
  // θ=1.1 with |R| > |S| makes long duplicate key runs in the leaves.
  // Small morsel sizes put morsel starts inside and at the edges of those
  // runs, and a size of 1 makes every leaf its own morsel. Every run must
  // match the simulator's join, and count each referenced S object as one
  // match.
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

/// One partition's hand-built leaves: every key of S_i in ascending order
/// with runs of 1 to 19 refs, some keys left out, plus leaves outside S_i —
/// a pointer into S_{i-1}, one one past the end of S_i and one into the
/// next partition — that sort before and after the rest.
std::vector<exec::SRef> HandBuiltLeaves(uint32_t i, uint64_t s_count) {
  std::vector<exec::SRef> leaves;
  uint64_t r_id = uint64_t{i} << 32;
  if (i > 0) leaves.push_back({r_id++, rel::SPtr{i - 1, 5}.Pack()});
  for (uint64_t k = 0; k < s_count; k += 1 + k % 3) {
    for (uint64_t run = 1 + (k * 7) % 19; run > 0; --run) {
      leaves.push_back({r_id++, rel::SPtr{i, k}.Pack()});
    }
  }
  leaves.push_back({r_id++, rel::SPtr{i, s_count}.Pack()});
  leaves.push_back({r_id++, rel::SPtr{i + 1, 0}.Pack()});
  return leaves;
}

TEST_F(IndexJoinTest, ProbeIndexPushesEveryInBoundsLeafOnce) {
  // op::ProbeIndex over hand-built leaf views. The probe's output tally
  // counts every push, so count and checksum equal the in-bounds leaves'
  // exactly when each is pushed once and no other leaf is. Morsel sizes
  // around the run lengths cut runs at every offset; partition 2 is empty.
  const uint32_t d = 3;
  auto workload =
      mm::BuildMmWorkload(mgr_.get(), "leaves", Shape(64, 3 * 64, d, 0.0, 7));
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  for (const bool sorted : {true, false}) {
    std::vector<std::vector<exec::SRef>> leaves(d);
    uint64_t want_count = 0, want_checksum = 0;
    std::set<uint64_t> keys;
    for (uint32_t i = 0; i + 1 < d; ++i) {
      leaves[i] = HandBuiltLeaves(i, workload->s_count[i]);
      if (!sorted) {
        std::mt19937_64 rng(i);
        std::shuffle(leaves[i].begin(), leaves[i].end(), rng);
      }
      for (const exec::SRef& leaf : leaves[i]) {
        const rel::SPtr sp = rel::SPtr::Unpack(leaf.sptr);
        if (sp.partition != i || sp.index >= workload->s_count[i]) continue;
        ++want_count;
        want_checksum +=
            rel::OutputDigest(leaf.r_id, rel::SKeyFor(i, sp.index));
        keys.insert(leaf.sptr);
      }
    }
    for (uint64_t morsel : {1, 2, 7, 16, 17, 0}) {
      SCOPED_TRACE(testing::Message()
                   << (sorted ? "sorted" : "unsorted")
                   << " morsel_tuples=" << morsel);
      exec::RealBackendOptions options;
      options.max_threads = 4;
      options.morsel_tuples = morsel;
      exec::RealBackend backend(*workload, join::JoinParams{}, options);
      std::vector<exec::RealSeg> views(d);
      std::vector<exec::RealSeg*> segs(d);
      std::vector<uint64_t> entries(d);
      for (uint32_t i = 0; i < d; ++i) {
        views[i].name = "IX" + std::to_string(i);
        views[i].base = reinterpret_cast<uint8_t*>(leaves[i].data());
        views[i].bytes = leaves[i].size() * sizeof(exec::SRef);
        segs[i] = &views[i];
        entries[i] = leaves[i].size();
      }
      const exec::op::IndexProbeCounts counts =
          exec::op::ProbeIndex(backend, segs, entries, /*sync=*/true);
      const join::JoinRunResult run = backend.Finish();
      EXPECT_EQ(run.output_count, want_count);
      EXPECT_EQ(run.output_checksum, want_checksum);
      EXPECT_EQ(counts.probes, workload->config.s_objects);
      // On sorted leaves no key crosses a cut, so every key counts once.
      if (sorted) {
        EXPECT_EQ(counts.matches, keys.size());
      }
    }
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
