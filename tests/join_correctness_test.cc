// End-to-end correctness: every algorithm must produce exactly the
// reference join (same cardinality, same order-independent checksum) for
// every combination of relation size, disk count, skew and memory budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "driver_test_name.h"
#include "join/drivers.h"
#include "join/oracle.h"
#include "rel/generator.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

using join::Algorithm;
using join::JoinParams;
using join::JoinRunResult;

struct Case {
  Algorithm algorithm;
  uint64_t r_objects;
  uint64_t s_objects;
  uint32_t disks;
  double zipf_theta;
  uint64_t m_rproc_bytes;
};

class JoinCorrectnessTest : public ::testing::TestWithParam<Case> {};

TEST_P(JoinCorrectnessTest, MatchesOracle) {
  const Case c = GetParam();
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = c.disks;
  sim::SimEnv env(mc);

  rel::RelationConfig rc;
  rc.r_objects = c.r_objects;
  rc.s_objects = c.s_objects;
  rc.num_partitions = c.disks;
  rc.zipf_theta = c.zipf_theta;
  rc.seed = 7 + c.r_objects + c.disks;
  auto workload = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  const join::OracleResult oracle = join::OracleJoin(&env, *workload);
  ASSERT_EQ(oracle.count, workload->expected_output_count);
  ASSERT_EQ(oracle.checksum, workload->expected_checksum);

  JoinParams params;
  params.m_rproc_bytes = c.m_rproc_bytes;
  params.m_sproc_bytes = c.m_rproc_bytes;
  auto result = join::RunJoin(c.algorithm, &env, *workload, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output_count, oracle.count);
  EXPECT_EQ(result->output_checksum, oracle.checksum);
  EXPECT_TRUE(result->verified);
  EXPECT_GT(result->elapsed_ms, 0.0);
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  const uint64_t sizes[] = {256, 4096, 20000};
  const uint32_t disk_counts[] = {1, 2, 4};
  const double thetas[] = {0.0, 0.6};
  const uint64_t memories[] = {64ull << 10, 1ull << 20};
  for (const join::DriverSpec& driver : join::kDrivers) {
    for (uint64_t n : sizes) {
      for (uint32_t d : disk_counts) {
        for (double theta : thetas) {
          for (uint64_t m : memories) {
            cases.push_back(Case{driver.algorithm, n, n, d, theta, m});
          }
        }
      }
    }
  }
  // Asymmetric relation sizes (the bucket map divides by |S_j|).
  for (const join::DriverSpec& driver : join::kDrivers) {
    cases.push_back(Case{driver.algorithm, 5000, 1000, 4, 0.0, 1ull << 20});
    cases.push_back(Case{driver.algorithm, 1000, 5000, 2, 0.0, 256ull << 10});
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = DriverTestName(c.algorithm);
  name += "_r" + std::to_string(c.r_objects) + "_s" +
          std::to_string(c.s_objects) + "_d" + std::to_string(c.disks) +
          "_t" + std::to_string(static_cast<int>(c.zipf_theta * 10)) + "_m" +
          std::to_string(c.m_rproc_bytes >> 10) + "k";
  return name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinCorrectnessTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// Extremely small memory must still complete correctly (just slowly).
TEST(JoinCorrectnessEdge, TinyMemory) {
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  sim::SimEnv env(mc);
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 2048;
  rc.num_partitions = 4;
  auto w = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(w.ok());
  JoinParams p;
  p.m_rproc_bytes = 4 * mc.page_size;  // four frames
  p.m_sproc_bytes = 4 * mc.page_size;
  for (const join::DriverSpec& driver : join::kDrivers) {
    auto r = driver.sim(&env, *w, p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->verified) << driver.name;
  }
}

// Explicit manual parameters (IRUN/NRUN, K/TSIZE) must also be honoured.
TEST(JoinCorrectnessEdge, ManualParameters) {
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  sim::SimEnv env(mc);
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 4096;
  rc.num_partitions = 4;
  auto w = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(w.ok());

  JoinParams p;
  p.m_rproc_bytes = 512 << 10;
  p.irun = 100;
  p.nrun_abl = 3;
  p.nrun_last = 2;
  auto sm = join::RunSortMerge(&env, *w, p);
  ASSERT_TRUE(sm.ok());
  EXPECT_TRUE(sm->verified);
  EXPECT_EQ(sm->irun, 100u);
  EXPECT_GT(sm->npass, 1u);

  JoinParams pg;
  pg.m_rproc_bytes = 512 << 10;
  pg.k_buckets = 7;
  pg.tsize = 16;
  auto gr = join::RunGrace(&env, *w, pg);
  ASSERT_TRUE(gr.ok());
  EXPECT_TRUE(gr->verified);
  EXPECT_EQ(gr->k_buckets, 7u);
  EXPECT_EQ(gr->tsize, 16u);
}

// Phase synchronization must not change the output, only the clocks.
TEST(JoinCorrectnessEdge, PhaseSyncInvariance) {
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  sim::SimEnv env(mc);
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 4096;
  rc.num_partitions = 4;
  rc.zipf_theta = 0.5;
  auto w = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(w.ok());

  for (const join::DriverSpec& driver : join::kDrivers) {
    JoinParams on, off;
    on.phase_sync = true;
    off.phase_sync = false;
    auto r_on = driver.sim(&env, *w, on);
    auto r_off = driver.sim(&env, *w, off);
    ASSERT_TRUE(r_on.ok() && r_off.ok());
    EXPECT_EQ(r_on->output_checksum, r_off->output_checksum);
    EXPECT_TRUE(r_on->verified);
    EXPECT_TRUE(r_off->verified);
    // A barrier can only increase (or keep) the max clock.
    EXPECT_GE(r_on->elapsed_ms, r_off->elapsed_ms * 0.999);
  }
}

}  // namespace
}  // namespace mmjoin
