// The headline validation property of the paper (Fig. 5): the analytical
// model must track the measured execution across algorithms and memory
// sizes. We assert agreement within a tolerance band in the paging regime
// and a loose conservative band elsewhere (see EXPERIMENTS.md).
#include "model/join_model.h"

#include <gtest/gtest.h>

#include "join/drivers.h"
#include "rel/generator.h"

namespace mmjoin::model {
namespace {

struct ValidationCase {
  join::Algorithm algorithm;
  double memory_fraction;  // of |R| * r
  double min_ratio;        // model/experiment bounds
  double max_ratio;
};

class ModelValidationTest : public ::testing::TestWithParam<ValidationCase> {
};

TEST_P(ModelValidationTest, ModelTracksExperiment) {
  const ValidationCase c = GetParam();
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  sim::SimEnv env(mc);

  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 25600;  // quarter paper scale: fast tests
  rc.num_partitions = 4;
  auto w = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(w.ok());

  join::JoinParams params;
  params.m_rproc_bytes = static_cast<uint64_t>(
      c.memory_fraction * rc.r_objects * sizeof(rel::RObject));
  params.m_sproc_bytes = params.m_rproc_bytes;

  auto result = join::RunJoin(c.algorithm, &env, *w, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->verified);

  ModelInputs in;
  in.machine = mc;
  in.relation = rc;
  in.skew = w->skew;
  in.params = params;
  in.dtt = MeasureDttCurves(mc.disk);

  const CostBreakdown predicted = Predict(c.algorithm, in);
  const double ratio = predicted.total_ms() / result->elapsed_ms;
  EXPECT_GE(ratio, c.min_ratio)
      << "model " << predicted.total_ms() << " vs experiment "
      << result->elapsed_ms;
  EXPECT_LE(ratio, c.max_ratio)
      << "model " << predicted.total_ms() << " vs experiment "
      << result->elapsed_ms;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelValidationTest,
    ::testing::Values(
        // Paging regime: tight agreement (the paper's validation zone).
        ValidationCase{join::Algorithm::kNestedLoops, 0.10, 0.8, 1.4},
        ValidationCase{join::Algorithm::kNestedLoops, 0.20, 0.8, 1.6},
        ValidationCase{join::Algorithm::kSortMerge, 0.02, 0.8, 1.5},
        ValidationCase{join::Algorithm::kSortMerge, 0.05, 0.8, 1.5},
        ValidationCase{join::Algorithm::kGrace, 0.03, 0.8, 1.5},
        ValidationCase{join::Algorithm::kGrace, 0.06, 0.8, 1.5},
        // Cached regime: the paper's all-random-I/O assumption makes the
        // model conservative; allow the documented slack.
        ValidationCase{join::Algorithm::kNestedLoops, 0.60, 0.9, 3.0}),
    [](const ::testing::TestParamInfo<ValidationCase>& info) {
      std::string n = join::AlgorithmName(info.param.algorithm);
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n + "_m" +
             std::to_string(
                 static_cast<int>(info.param.memory_fraction * 1000));
    });

TEST(ModelStructureTest, BreakdownCategoriesArePositive) {
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  ModelInputs in;
  in.machine = mc;
  in.relation = rel::RelationConfig{};
  in.skew = 1.0;
  in.params.m_rproc_bytes = 1 << 20;
  in.params.m_sproc_bytes = 1 << 20;
  in.dtt.read = DttCurve({{1, 6.0}, {12800, 20.0}});
  in.dtt.write = DttCurve({{1, 6.0}, {12800, 13.0}});
  for (auto a : {join::Algorithm::kNestedLoops, join::Algorithm::kSortMerge,
                 join::Algorithm::kGrace}) {
    const CostBreakdown c = Predict(a, in);
    EXPECT_GT(c.io_ms, 0.0) << join::AlgorithmName(a);
    EXPECT_GT(c.cpu_ms, 0.0) << join::AlgorithmName(a);
    EXPECT_GT(c.cs_ms, 0.0) << join::AlgorithmName(a);
    EXPECT_GT(c.setup_ms, 0.0) << join::AlgorithmName(a);
    EXPECT_GT(c.total_ms(), c.io_ms);
  }
}

TEST(ModelStructureTest, NestedLoopsMonotoneInMemory) {
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  ModelInputs in;
  in.machine = mc;
  in.relation = rel::RelationConfig{};
  in.skew = 1.0;
  in.dtt = MeasureDttCurves(mc.disk);
  double prev = 1e18;
  for (double frac : {0.05, 0.1, 0.2, 0.4, 0.7}) {
    in.params.m_rproc_bytes = static_cast<uint64_t>(
        frac * in.relation.r_objects * sizeof(rel::RObject));
    in.params.m_sproc_bytes = in.params.m_rproc_bytes;
    const double t = Predict(join::Algorithm::kNestedLoops, in).total_ms();
    EXPECT_LE(t, prev * 1.02) << "at " << frac;
    prev = t;
  }
}

TEST(ModelStructureTest, GraceNearlyFlatOutsideThrashRegion) {
  // Outside the thrash region Grace is governed by sequential passes whose
  // volume does not depend on memory; the paper's Fig. 5c spans less than
  // a 1.4x range there. (It is NOT monotone: bigger memory means fewer,
  // larger buckets, which widens the dtt band of the final pass.)
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  ModelInputs in;
  in.machine = mc;
  in.relation = rel::RelationConfig{};
  in.skew = 1.0;
  in.dtt = MeasureDttCurves(mc.disk);
  double lo = 1e18, hi = 0;
  for (double frac : {0.02, 0.04, 0.06, 0.08}) {
    in.params.m_rproc_bytes = static_cast<uint64_t>(
        frac * in.relation.r_objects * sizeof(rel::RObject));
    in.params.m_sproc_bytes = in.params.m_rproc_bytes;
    const double t = Predict(join::Algorithm::kGrace, in).total_ms();
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_LT(hi / lo, 1.4);
}

TEST(ModelStructureTest, SkewInflatesSynchronizedAlgorithms) {
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  ModelInputs in;
  in.machine = mc;
  in.relation = rel::RelationConfig{};
  in.params.m_rproc_bytes = 2 << 20;
  in.params.m_sproc_bytes = 2 << 20;
  in.dtt.read = DttCurve({{1, 6.0}, {12800, 20.0}});
  in.dtt.write = DttCurve({{1, 6.0}, {12800, 13.0}});
  in.skew = 1.0;
  const double even = PredictSortMerge(in).total_ms();
  in.skew = 1.5;
  const double skewed = PredictSortMerge(in).total_ms();
  EXPECT_GT(skewed, even);
}

TEST(ModelStructureTest, GraceThrashTermAppearsAtLowMemory) {
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  ModelInputs in;
  in.machine = mc;
  in.relation = rel::RelationConfig{};
  in.skew = 1.0;
  in.dtt = MeasureDttCurves(mc.disk);
  // Deep in the thrash region the io term must blow up super-linearly
  // versus a mid-memory point.
  auto total_at = [&](double frac) {
    in.params.m_rproc_bytes = static_cast<uint64_t>(
        frac * in.relation.r_objects * sizeof(rel::RObject));
    in.params.m_sproc_bytes = in.params.m_rproc_bytes;
    return PredictGrace(in).total_ms();
  };
  const double mid = total_at(0.04);
  const double low = total_at(0.005);
  EXPECT_GT(low, 1.5 * mid);
}

}  // namespace
}  // namespace mmjoin::model
