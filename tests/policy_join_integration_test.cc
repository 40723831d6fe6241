// Replacement-policy integration: every join must stay correct under every
// policy, and the policies must differ measurably where the paper says LRU
// misbehaves (scanning patterns).
#include <gtest/gtest.h>

#include <tuple>

#include "driver_test_name.h"
#include "join/drivers.h"
#include "join/grace.h"
#include "join/nested_loops.h"
#include "rel/generator.h"

namespace mmjoin::join {
namespace {

using Case = std::tuple<Algorithm, vm::PolicyKind>;

class PolicyJoinTest : public ::testing::TestWithParam<Case> {};

TEST_P(PolicyJoinTest, CorrectUnderEveryPolicy) {
  const auto [algorithm, policy] = GetParam();
  sim::SimEnv env(sim::MachineConfig::SequentSymmetry1996());
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 8192;
  rc.zipf_theta = 0.4;
  auto w = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(w.ok());
  JoinParams p;
  p.m_rproc_bytes = 128 << 10;  // scarce: the policy actually evicts
  p.m_sproc_bytes = 128 << 10;
  p.policy = policy;
  auto r = RunJoin(algorithm, &env, *w, p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->verified);
  EXPECT_GT(r->faults, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PolicyJoinTest,
    ::testing::Combine(::testing::ValuesIn(kPaperDrivers),
                       ::testing::Values(vm::PolicyKind::kLru,
                                         vm::PolicyKind::kClock,
                                         vm::PolicyKind::kFifo)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return DriverTestName(std::get<0>(info.param)) + "_" +
             vm::PolicyKindName(std::get<1>(info.param));
    });

TEST(PolicyJoinDifferential, PoliciesProduceDifferentFaultCounts) {
  // Same workload and memory, different policies: at least one pair of
  // policies must disagree on fault counts for the Grace bucket pattern
  // (otherwise the ablation ABL-3 would be vacuous).
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 16384;
  uint64_t faults[3];
  int idx = 0;
  for (auto policy : {vm::PolicyKind::kLru, vm::PolicyKind::kClock,
                      vm::PolicyKind::kFifo}) {
    sim::SimEnv env(sim::MachineConfig::SequentSymmetry1996());
    auto w = rel::BuildWorkload(&env, rc);
    ASSERT_TRUE(w.ok());
    JoinParams p;
    p.m_rproc_bytes = 24 * 4096;  // deep in the thrash region
    p.m_sproc_bytes = 24 * 4096;
    p.policy = policy;
    auto r = RunGrace(&env, *w, p);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->verified);
    faults[idx++] = r->faults;
  }
  EXPECT_TRUE(faults[0] != faults[1] || faults[1] != faults[2])
      << "LRU=" << faults[0] << " CLOCK=" << faults[1]
      << " FIFO=" << faults[2];
}

TEST(GBufferIntegration, LargerGMeansFewerContextSwitches) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 8192;
  uint64_t switches[2];
  uint64_t checksum[2];
  int idx = 0;
  for (uint64_t g : {uint64_t{512}, uint64_t{32768}}) {
    sim::SimEnv env(sim::MachineConfig::SequentSymmetry1996());
    auto w = rel::BuildWorkload(&env, rc);
    ASSERT_TRUE(w.ok());
    JoinParams p;
    p.m_rproc_bytes = 512 << 10;
    p.m_sproc_bytes = 512 << 10;
    p.g_bytes = g;
    auto r = RunNestedLoops(&env, *w, p);
    ASSERT_TRUE(r.ok());
    uint64_t cs = 0;
    for (const auto& s : r->rproc_stats) cs += s.context_switches;
    switches[idx] = cs;
    checksum[idx] = r->output_checksum;
    ++idx;
  }
  EXPECT_GT(switches[0], switches[1] * 10);  // ~64x fewer exchanges
  EXPECT_EQ(checksum[0], checksum[1]);
}

}  // namespace
}  // namespace mmjoin::join
