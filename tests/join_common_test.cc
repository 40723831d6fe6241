// Unit tests for the shared execution core: RP sub-partition layout, the
// G-buffered request protocol, setup charging, and result assembly.
#include "join/join_common.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "exec/op/stages.h"
#include "join/drivers.h"
#include "rel/generator.h"

namespace mmjoin::join {
namespace {

struct Fixture {
  Fixture()
      : env(sim::MachineConfig::SequentSymmetry1996()) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = 4096;
    auto built = rel::BuildWorkload(&env, rc);
    EXPECT_TRUE(built.ok());
    workload = std::move(built).value();
  }

  sim::SimEnv env;
  rel::Workload workload;
};

TEST(JoinExecutionTest, RpLayoutIsContiguousAndExact) {
  Fixture f;
  JoinParams p;
  JoinExecution ex(&f.env, f.workload, p);
  ASSERT_TRUE(ex.CreateRpSegments().ok());
  for (uint32_t i = 0; i < 4; ++i) {
    uint64_t expected_off = 0;
    for (uint32_t j = 0; j < 4; ++j) {
      EXPECT_EQ(ex.RpSubOffset(i, j), expected_off) << i << "," << j;
      if (j != i) {
        EXPECT_EQ(ex.RpSubCount(i, j), f.workload.counts[i][j]);
        expected_off += f.workload.counts[i][j] * sizeof(rel::RObject);
      }
    }
    // Total RP bytes round up to whole pages.
    const uint64_t pages = ex.RpPages(i);
    EXPECT_GE(pages * 4096, expected_off);
    EXPECT_LT((pages - 1) * 4096, std::max<uint64_t>(expected_off, 1));
  }
}

TEST(JoinExecutionTest, AppendToRpMovesBytes) {
  Fixture f;
  JoinParams p;
  JoinExecution ex(&f.env, f.workload, p);
  ASSERT_TRUE(ex.CreateRpSegments().ok());
  rel::RObject obj;
  obj.id = 777;
  obj.sptr = rel::SPtr{1, 5}.Pack();
  ASSERT_TRUE(ex.AppendToRp(0, 1, obj));
  const auto* stored = reinterpret_cast<const rel::RObject*>(
      f.env.segment(ex.rp_seg(0)).raw() + ex.RpSubOffset(0, 1));
  EXPECT_EQ(stored->id, 777u);
  // The copy was charged as a private->private move.
  EXPECT_GT(ex.rproc(0).stats().cpu_ms, 0.0);
}

TEST(JoinExecutionTest, RequestSBatchesThroughGBuffer) {
  Fixture f;
  JoinParams p;
  p.g_bytes = 3 * (sizeof(rel::RObject) + 8 + sizeof(rel::SObject));
  JoinExecution ex(&f.env, f.workload, p);
  // Two requests: below capacity, nothing serviced yet.
  const auto* r_objs = reinterpret_cast<const rel::RObject*>(
      f.env.segment(f.workload.r_segs[0]).raw());
  ex.RequestS(0, r_objs[0].id, r_objs[0].sptr);
  ex.RequestS(0, r_objs[1].id, r_objs[1].sptr);
  EXPECT_EQ(ex.out_count(0), 0u);
  EXPECT_EQ(ex.rproc(0).stats().context_switches, 0u);
  // Third fills the buffer: one exchange, three joins.
  ex.RequestS(0, r_objs[2].id, r_objs[2].sptr);
  EXPECT_EQ(ex.out_count(0), 3u);
  EXPECT_EQ(ex.rproc(0).stats().context_switches, 2u);
  // Flush drains a partial batch.
  ex.RequestS(0, r_objs[3].id, r_objs[3].sptr);
  ex.FlushSRequests(0);
  EXPECT_EQ(ex.out_count(0), 4u);
  EXPECT_EQ(ex.rproc(0).stats().context_switches, 4u);
}

// op::SweepRun over a contiguous run of R objects, read in page-bounded
// chunks, costs what the per-object Read + RequestS loop costs: the same
// output, virtual clocks and faults.
TEST(JoinExecutionTest, SweepRunMatchesPerObjectLoop) {
  Fixture run_fix, loop_fix;
  JoinParams p;
  JoinExecution run(&run_fix.env, run_fix.workload, p);
  JoinExecution loop(&loop_fix.env, loop_fix.workload, p);
  const uint64_t r = sizeof(rel::RObject);
  for (uint32_t i = 0; i < 4; ++i) {
    exec::op::SweepRun(run, i, run.r_seg(i), 0, run.r_count(i));
    for (uint64_t k = 0; k < loop.r_count(i); ++k) {
      rel::RObject obj;
      std::memcpy(&obj, loop.Read(i, loop.r_seg(i), k * r, r), r);
      loop.RequestS(i, obj.id, obj.sptr);
    }
    loop.FlushSRequests(i);
  }
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(run.out_count(i), loop.out_count(i)) << i;
    EXPECT_EQ(run.rproc(i).clock_ms(), loop.rproc(i).clock_ms()) << i;
    EXPECT_EQ(run.rproc(i).stats().faults, loop.rproc(i).stats().faults)
        << i;
    EXPECT_EQ(run.sproc(i).stats().faults, loop.sproc(i).stats().faults)
        << i;
  }
  const JoinRunResult a = run.Finish();
  const JoinRunResult b = loop.Finish();
  EXPECT_TRUE(a.verified);
  EXPECT_EQ(a.output_count, b.output_count);
  EXPECT_EQ(a.output_checksum, b.output_checksum);
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
  EXPECT_EQ(a.faults, b.faults);
}

TEST(JoinExecutionTest, ChargeSetupAllSerializesOverD) {
  Fixture f;
  JoinParams p;
  JoinExecution ex(&f.env, f.workload, p);
  ex.ChargeSetupAll(10.0);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ex.rproc(i).stats().setup_ms, 40.0);  // x D
  }
}

TEST(JoinExecutionTest, SyncClocksBarriers) {
  Fixture f;
  JoinParams p;
  JoinExecution ex(&f.env, f.workload, p);
  ex.rproc(0).ChargeCpu(100.0);
  ex.rproc(2).ChargeCpu(40.0);
  ex.SyncClocks();
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ex.rproc(i).clock_ms(), 100.0);
  }
  // The barrier time is accounted as wait.
  EXPECT_DOUBLE_EQ(ex.rproc(1).stats().wait_ms, 100.0);
  EXPECT_DOUBLE_EQ(ex.rproc(2).stats().wait_ms, 60.0);
}

TEST(JoinExecutionTest, FinishAggregatesAndVerifies) {
  Fixture f;
  JoinParams p;
  JoinExecution ex(&f.env, f.workload, p);
  // Push the complete R through the request path: output = full join.
  for (uint32_t i = 0; i < 4; ++i) {
    const auto* r_objs = reinterpret_cast<const rel::RObject*>(
        f.env.segment(f.workload.r_segs[i]).raw());
    for (uint64_t k = 0; k < f.workload.r_count[i]; ++k) {
      ex.RequestS(i, r_objs[k].id, r_objs[k].sptr);
    }
    ex.FlushSRequests(i);
  }
  const JoinRunResult result = ex.Finish();
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.output_count, f.workload.expected_output_count);
  EXPECT_GT(result.elapsed_ms, 0.0);
}

TEST(JoinExecutionTest, PartialOutputFailsVerification) {
  Fixture f;
  JoinParams p;
  JoinExecution ex(&f.env, f.workload, p);
  const auto* r_objs = reinterpret_cast<const rel::RObject*>(
      f.env.segment(f.workload.r_segs[0]).raw());
  ex.RequestS(0, r_objs[0].id, r_objs[0].sptr);
  ex.FlushSRequests(0);
  const JoinRunResult result = ex.Finish();
  EXPECT_FALSE(result.verified);
}

TEST(AlgorithmNameTest, Names) {
  const char* const expected[kNumAlgorithms] = {
      "nested-loops", "sort-merge", "grace", "hybrid-hash", "index-nl",
      "mpsm"};
  std::set<std::string> seen;
  for (uint32_t i = 0; i < kNumAlgorithms; ++i) {
    const auto a = static_cast<Algorithm>(i);
    EXPECT_EQ(kDrivers[i].algorithm, a) << "row " << i;
    EXPECT_STREQ(AlgorithmName(a), expected[i]);
    EXPECT_TRUE(seen.insert(AlgorithmName(a)).second) << AlgorithmName(a);
    EXPECT_EQ(ParseAlgorithm(AlgorithmName(a)), a);
  }
  EXPECT_EQ(ParseAlgorithm(kAutoAlgorithmName), std::nullopt);
  EXPECT_EQ(ParseAlgorithm("nested-hoops"), std::nullopt);
}

}  // namespace
}  // namespace mmjoin::join
