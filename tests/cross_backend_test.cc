// Cross-backend equivalence: the unified drivers (exec/join_drivers.h)
// instantiated over the simulated backend (join::JoinExecution) and the
// real-mmap backend (exec::RealBackend) must produce the IDENTICAL join —
// same output_count, same order-independent output_checksum — for every
// algorithm, because the workload generators are seed-deterministic and
// the algorithm logic is literally the same template.
//
// This is the one-harness sim-vs-real cross-validation the backend seam
// exists to enable.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "driver_test_name.h"
#include "join/drivers.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "rel/generator.h"
#include "scratch_dir.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

class CrossBackendTest : public ::testing::TestWithParam<join::DriverSpec> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  static rel::RelationConfig Shape(uint64_t n, uint32_t d, double theta,
                                   uint64_t seed) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = n;
    rc.num_partitions = d;
    rc.zipf_theta = theta;
    rc.seed = seed;
    return rc;
  }

  StatusOr<join::JoinRunResult> RunSim(const rel::RelationConfig& rc,
                                       const join::JoinParams& params) {
    sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
    mc.num_disks = rc.num_partitions;  // one partition per disk, as the paper
    sim::SimEnv env(mc);
    auto workload = rel::BuildWorkload(&env, rc);
    if (!workload.ok()) return workload.status();
    return GetParam().sim(&env, *workload, params);
  }

  StatusOr<mm::MmJoinResult> RunReal(const rel::RelationConfig& rc,
                                     const mm::MmJoinOptions& options,
                                     const std::string& prefix) {
    auto workload = mm::BuildMmWorkload(mgr_.get(), prefix, rc);
    if (!workload.ok()) return workload.status();
    return GetParam().real(*workload, options);
  }

  ScratchDir scratch_{"xbackend"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

TEST_P(CrossBackendTest, SameSeedSameJoin) {
  const rel::RelationConfig rc = Shape(8192, 4, 0.5, 20260806);

  join::JoinParams params;
  params.m_rproc_bytes =
      static_cast<uint64_t>(0.2 * rc.r_objects * sizeof(rel::RObject));
  params.m_sproc_bytes = params.m_rproc_bytes;

  auto sim_result = RunSim(rc, params);
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();
  ASSERT_TRUE(sim_result->verified);

  mm::MmJoinOptions options;
  options.m_rproc_bytes = params.m_rproc_bytes;
  auto real_result = RunReal(rc, options, "seed");
  ASSERT_TRUE(real_result.ok()) << real_result.status().ToString();
  ASSERT_TRUE(real_result->verified);

  EXPECT_EQ(sim_result->output_count, real_result->output_count);
  EXPECT_EQ(sim_result->output_checksum, real_result->output_checksum);
}

TEST_P(CrossBackendTest, SkewedWorkloadStillMatches) {
  const rel::RelationConfig rc = Shape(12000, 3, 0.9, 777);
  auto sim_result = RunSim(rc, join::JoinParams{});
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();

  auto real_result = RunReal(rc, mm::MmJoinOptions{}, "skew");
  ASSERT_TRUE(real_result.ok()) << real_result.status().ToString();

  EXPECT_EQ(sim_result->output_count, real_result->output_count);
  EXPECT_EQ(sim_result->output_checksum, real_result->output_checksum);
  EXPECT_TRUE(sim_result->verified && real_result->verified);
}

TEST_P(CrossBackendTest, PassStructureMatchesAcrossBackends) {
  // Not just the output: the drivers are one template, so both backends
  // walk the same pass boundaries in the same order.
  const rel::RelationConfig rc = Shape(4096, 2, 0.0, 42);
  auto sim_result = RunSim(rc, join::JoinParams{});
  ASSERT_TRUE(sim_result.ok());
  auto real_result = RunReal(rc, mm::MmJoinOptions{}, "passes");
  ASSERT_TRUE(real_result.ok());

  ASSERT_EQ(sim_result->passes.size(), real_result->run.passes.size());
  for (size_t p = 0; p < sim_result->passes.size(); ++p) {
    EXPECT_EQ(sim_result->passes[p].label, real_result->run.passes[p].label);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CrossBackendTest,
                         ::testing::ValuesIn(join::kDrivers),
                         [](const auto& info) {
                           return DriverTestName(info.param.algorithm);
                         });

}  // namespace
}  // namespace mmjoin
