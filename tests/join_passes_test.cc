// Per-pass accounting: labels, ordering, and the invariant that pass
// durations partition the total elapsed time.
#include <gtest/gtest.h>

#include <numeric>

#include "join/drivers.h"
#include "rel/generator.h"

namespace mmjoin::join {
namespace {

JoinRunResult RunFor(Algorithm a) {
  sim::SimEnv env(sim::MachineConfig::SequentSymmetry1996());
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 8192;
  auto w = rel::BuildWorkload(&env, rc);
  EXPECT_TRUE(w.ok());
  JoinParams p;
  p.m_rproc_bytes = 256 << 10;
  p.m_sproc_bytes = 256 << 10;
  StatusOr<JoinRunResult> r = RunJoin(a, &env, *w, p);
  EXPECT_TRUE(r.ok());
  return *r;
}

TEST(JoinPassesTest, NestedLoopsLabels) {
  const JoinRunResult r = RunFor(Algorithm::kNestedLoops);
  ASSERT_EQ(r.passes.size(), 3u);
  EXPECT_EQ(r.passes[0].label, "setup");
  EXPECT_EQ(r.passes[1].label, "pass0");
  EXPECT_EQ(r.passes[2].label, "pass1");
}

TEST(JoinPassesTest, SortMergeLabels) {
  const JoinRunResult r = RunFor(Algorithm::kSortMerge);
  ASSERT_EQ(r.passes.size(), 4u);
  EXPECT_EQ(r.passes[0].label, "setup");
  EXPECT_EQ(r.passes[3].label, "sort+merge+join");
}

TEST(JoinPassesTest, GraceLabels) {
  const JoinRunResult r = RunFor(Algorithm::kGrace);
  ASSERT_EQ(r.passes.size(), 4u);
  EXPECT_EQ(r.passes[3].label, "bucket-join");
}

TEST(JoinPassesTest, PassesPartitionElapsedTime) {
  for (auto a : kPaperDrivers) {
    const JoinRunResult r = RunFor(a);
    double sum = 0;
    for (const auto& pass : r.passes) {
      EXPECT_GE(pass.elapsed_ms, 0.0) << pass.label;
      sum += pass.elapsed_ms;
    }
    EXPECT_NEAR(sum, r.elapsed_ms, 1e-6 * r.elapsed_ms)
        << AlgorithmName(a);
  }
}

TEST(JoinPassesTest, SetupPassHasNoFaults) {
  for (auto a : kPaperDrivers) {
    const JoinRunResult r = RunFor(a);
    EXPECT_EQ(r.passes[0].faults, 0u) << AlgorithmName(a);
    EXPECT_GT(r.passes[0].elapsed_ms, 0.0);
  }
}

TEST(JoinPassesTest, FaultsAttributedToWorkPasses) {
  for (auto a : kPaperDrivers) {
    const JoinRunResult r = RunFor(a);
    uint64_t sum = 0;
    for (const auto& pass : r.passes) sum += pass.faults;
    EXPECT_EQ(sum, r.faults) << AlgorithmName(a);
    // Pass 0 reads R_i: it must fault.
    EXPECT_GT(r.passes[1].faults, 0u) << AlgorithmName(a);
  }
}

}  // namespace
}  // namespace mmjoin::join
