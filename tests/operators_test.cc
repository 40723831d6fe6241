// Operator-layer tests (exec/op/): per-stage behavior of the push-based
// plan operators, the plan validator and registry, and the identity
// matrix the refactor is accountable to — every refactored join driver
// and every built-in plan must produce bit-identical counts/checksums on
// the simulated and real backends.
//
// The per-stage tests drive operators through full plan runs with custom
// PlanSpecs rather than poking Push() directly: the executor IS the
// contract (per-slot state sized by Open, serial merge at Close), and a
// custom spec reaches every edge — empty input, 0/1/many groups, 0%/100%
// filter selectivity — on both backends with the serial reference
// evaluator as oracle.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver_test_name.h"
#include "exec/op/stages.h"
#include "exec/real_backend.h"
#include "exec/scheduler.h"
#include "join/drivers.h"
#include "join/grace.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "rel/generator.h"
#include "scratch_dir.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

using exec::op::AggOp;
using exec::op::AggSpec;
using exec::op::Column;
using exec::op::ColumnValue;
using exec::op::GroupsChecksum;
using exec::op::PlanRunResult;
using exec::op::PlanSpec;
using exec::op::Predicate;

rel::RelationConfig Shape(uint64_t n, uint32_t d, double theta,
                          uint64_t seed) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = n;
  rc.num_partitions = d;
  rc.zipf_theta = theta;
  rc.seed = seed;
  return rc;
}

// ---------------------------------------------------------------------------
// Pure pieces: pseudo-columns, validation, registry, checksum convention
// ---------------------------------------------------------------------------

TEST(ColumnsTest, PseudoColumnRangesAndDeterminism) {
  for (uint64_t r_id = 0; r_id < 5000; ++r_id) {
    const uint64_t qty = ColumnValue(Column::kQty, r_id, 0);
    const uint64_t price = ColumnValue(Column::kPrice, r_id, 0);
    const uint64_t disc = ColumnValue(Column::kDiscount, r_id, 0);
    const uint64_t date = ColumnValue(Column::kDate, r_id, 0);
    const uint64_t flag = ColumnValue(Column::kFlag, r_id, 0);
    EXPECT_GE(qty, 1u);
    EXPECT_LE(qty, 50u);
    EXPECT_GE(price, 10000u);
    EXPECT_LE(price, 99999u);
    EXPECT_LE(disc, 10u);
    EXPECT_LE(date, 2465u);
    EXPECT_LE(flag, 2u);
    // Same row, same value — the columns are pure functions of identity.
    EXPECT_EQ(qty, ColumnValue(Column::kQty, r_id, 0));
  }
  EXPECT_EQ(ColumnValue(Column::kRId, 77, 0), 77u);
  EXPECT_EQ(ColumnValue(Column::kSKey, 0, 1234), 1234u);
  EXPECT_EQ(ColumnValue(Column::kSPriority, 0, 1234), 1234u % 5);
}

TEST(ColumnsTest, SColumnsAreFlagged) {
  EXPECT_TRUE(exec::op::ColumnNeedsS(Column::kSKey));
  EXPECT_TRUE(exec::op::ColumnNeedsS(Column::kSPriority));
  EXPECT_FALSE(exec::op::ColumnNeedsS(Column::kQty));
  EXPECT_FALSE(exec::op::ColumnNeedsS(Column::kRId));
}

TEST(PlanSpecTest, ValidateRejectsSColumnsWithoutProbe) {
  PlanSpec spec;
  spec.name = "bad";
  spec.filters.push_back(Predicate{Column::kSPriority, 0, 3});
  EXPECT_FALSE(exec::op::ValidatePlan(spec).ok());
  spec.probe_s = true;
  spec.aggs.push_back(AggSpec{AggOp::kCount, Column::kRId, Column::kRId});
  EXPECT_TRUE(exec::op::ValidatePlan(spec).ok());
}

TEST(PlanSpecTest, ValidateRejectsGroupingWithoutAggregates) {
  PlanSpec spec;
  spec.name = "bad";
  spec.group_by = Column::kFlag;
  EXPECT_FALSE(exec::op::ValidatePlan(spec).ok());
  spec.aggs.push_back(AggSpec{AggOp::kCount, Column::kRId, Column::kRId});
  EXPECT_TRUE(exec::op::ValidatePlan(spec).ok());
}

TEST(PlanSpecTest, BuiltinRegistryIsComplete) {
  for (const char* name : exec::op::kPlanNames) {
    const PlanSpec* spec = exec::op::FindPlan(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_TRUE(exec::op::ValidatePlan(*spec).ok()) << name;
  }
  EXPECT_EQ(exec::op::FindPlan("nope"), nullptr);
  EXPECT_EQ(exec::op::PlanDescriptions().size(),
            std::size(exec::op::kPlanNames));
}

TEST(PlanSpecTest, GroupsChecksumIsOrderAndContentSensitive) {
  std::vector<exec::op::GroupRow> a{{1, {10, 20}}, {2, {30, 40}}};
  std::vector<exec::op::GroupRow> mutated = a;
  mutated[1].aggs[0] = 31;
  EXPECT_EQ(GroupsChecksum({}), 0u);
  EXPECT_NE(GroupsChecksum(a), GroupsChecksum(mutated));
  EXPECT_EQ(GroupsChecksum(a), GroupsChecksum(a));
}

// ---------------------------------------------------------------------------
// BucketLayout: contiguous bucket regions and one-writer bump cursors
// ---------------------------------------------------------------------------

using exec::op::BucketLayout;
constexpr uint64_t kObj = sizeof(rel::RObject);

TEST(BucketLayoutTest, OneBucketIsTheFlatLayout) {
  BucketLayout layout;
  layout.Init({{5}, {0}, {3}}, kObj);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(layout.Offset(i, 0), 0u);
  EXPECT_EQ(layout.Count(0, 0), 5u);
  EXPECT_EQ(layout.Count(1, 0), 0u);
  EXPECT_EQ(layout.Count(2, 0), 3u);
  EXPECT_EQ(layout.Total(0), 5u);
  EXPECT_EQ(layout.Total(1), 0u);
  EXPECT_EQ(layout.Total(2), 3u);
}

TEST(BucketLayoutTest, EmptyBucketsTakeNoSpace) {
  BucketLayout layout;
  layout.Init({{0, 4, 0, 2}}, kObj);
  EXPECT_EQ(layout.Offset(0, 0), 0u);
  EXPECT_EQ(layout.Offset(0, 1), 0u);
  EXPECT_EQ(layout.Offset(0, 2), 4 * kObj);
  EXPECT_EQ(layout.Offset(0, 3), 4 * kObj);
  EXPECT_EQ(layout.Count(0, 0), 0u);
  EXPECT_EQ(layout.Count(0, 1), 4u);
  EXPECT_EQ(layout.Count(0, 2), 0u);
  EXPECT_EQ(layout.Count(0, 3), 2u);
  EXPECT_EQ(layout.Total(0), 6u);
}

TEST(BucketLayoutTest, ClaimsBumpEachBucketsCursorIndependently) {
  BucketLayout layout;
  layout.Init({{3, 2}, {1, 1}}, kObj);
  EXPECT_EQ(layout.Claim(0, 1, 1), 3 * kObj);
  EXPECT_EQ(layout.Claim(0, 0, 2), 0u);
  EXPECT_EQ(layout.Claim(1, 1, 1), 1 * kObj);
  EXPECT_EQ(layout.Claim(0, 1, 1), 4 * kObj);
  EXPECT_EQ(layout.Claim(0, 0, 1), 2 * kObj);
  EXPECT_EQ(layout.Claim(1, 0, 1), 0u);
}

TEST(BucketLayoutTest, OutlivesItsCountsVector) {
  BucketLayout layout;
  {
    const std::vector<std::vector<uint64_t>> counts{{7, 0, 9}};
    layout.Init(counts, kObj);
  }  // the counts are gone; the layout must not refer to them
  const BucketLayout moved = std::move(layout);
  EXPECT_EQ(moved.Count(0, 0), 7u);
  EXPECT_EQ(moved.Count(0, 1), 0u);
  EXPECT_EQ(moved.Count(0, 2), 9u);
  EXPECT_EQ(moved.Offset(0, 2), 7 * kObj);
  EXPECT_EQ(moved.Total(0), 16u);
}

// ---------------------------------------------------------------------------
// CountBuckets: the parallel bucket histogram against a serial reference
// ---------------------------------------------------------------------------

using rel::BucketHistogram;

// A per-test segment directory for real workloads.
class OperatorDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  ScratchDir scratch_{"opdir"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

// One GraceBucketOf divide per object, in partition order on one thread.
// Own-partition bucket-0 objects count as resident, as CountBuckets counts
// them.
BucketHistogram SerialHistogram(const mm::MmWorkload& w, uint32_t k) {
  const uint32_t d = static_cast<uint32_t>(w.r_count.size());
  BucketHistogram h;
  h.buckets.assign(d, std::vector<uint64_t>(k, 0));
  h.resident.assign(d, 0);
  h.routed.assign(d, std::vector<uint64_t>(d, 0));
  for (uint32_t i = 0; i < d; ++i) {
    const rel::RObject* objs = w.RObjects(i);
    for (uint64_t n = 0; n < w.r_count[i]; ++n) {
      const rel::SPtr sp = rel::SPtr::Unpack(objs[n].sptr);
      const uint32_t b =
          join::GraceBucketOf(sp.index, w.s_count[sp.partition], k);
      if (b == 0 && sp.partition == i) {
        ++h.resident[i];
      } else {
        ++h.buckets[sp.partition][b];
      }
      ++h.routed[i][sp.partition];
    }
  }
  return h;
}

void ExpectSameHistogram(const BucketHistogram& want,
                         const BucketHistogram& got, const std::string& what) {
  EXPECT_EQ(want.buckets, got.buckets) << what;
  EXPECT_EQ(want.resident, got.resident) << what;
  EXPECT_EQ(want.routed, got.routed) << what;
}

BucketHistogram RealHistogram(const mm::MmWorkload& w, uint32_t k,
                              const exec::RealBackendOptions& options) {
  exec::RealBackend ex(w, join::JoinParams{}, options);
  return exec::op::CountBuckets(ex, k);
}

class CountBucketsTest : public OperatorDirTest {};

TEST_F(CountBucketsTest, MatchesSerialReferenceAcrossWorkersMorselsSkew) {
  constexpr uint32_t kBuckets = 7;
  for (double theta : {0.0, 1.1}) {
    rel::RelationConfig rc = Shape(24000, 8, theta, 4242);
    rc.s_objects = 20000;
    auto w = mm::BuildMmWorkload(mgr_.get(), theta == 0 ? "u" : "z", rc);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    const BucketHistogram want = SerialHistogram(*w, kBuckets);
    for (uint32_t workers : {1u, 2u, 4u, 8u}) {
      // 1000: several morsels per partition; 1 << 40: one per partition
      // that is not hot.
      for (uint64_t morsel : {uint64_t{1000}, uint64_t{1} << 40}) {
        exec::RealBackendOptions options;
        options.max_threads = workers;
        options.morsel_tuples = morsel;
        ExpectSameHistogram(want, RealHistogram(*w, kBuckets, options),
                            "theta=" + std::to_string(theta) +
                                " workers=" + std::to_string(workers) +
                                " morsel=" + std::to_string(morsel));
      }
    }
  }
}

TEST_F(CountBucketsTest, DegenerateShapes) {
  exec::RealBackendOptions options;
  options.morsel_tuples = 256;

  // D = 1: every object is own-partition.
  auto one = mm::BuildMmWorkload(mgr_.get(), "one", Shape(5000, 1, 0.0, 3));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ExpectSameHistogram(SerialHistogram(*one, 5), RealHistogram(*one, 5, options),
                      "D=1");

  // |S| != |R|, both ways, with K = 1 (the flat layout) and K = 9.
  for (uint64_t s_objects : {uint64_t{600}, uint64_t{17000}}) {
    rel::RelationConfig rc = Shape(3000, 3, 0.8, 5);
    rc.s_objects = s_objects;
    auto w = mm::BuildMmWorkload(mgr_.get(), "s" + std::to_string(s_objects),
                                 rc);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    for (uint32_t k : {1u, 9u}) {
      ExpectSameHistogram(SerialHistogram(*w, k), RealHistogram(*w, k, options),
                          "|S|=" + std::to_string(s_objects));
    }
  }

  auto w = mm::BuildMmWorkload(mgr_.get(), "edge", Shape(4000, 3, 0.0, 7));
  ASSERT_TRUE(w.ok()) << w.status().ToString();

  // An S partition with no objects (GraceBucketMap's divisor 0): re-aim
  // every pointer into S_2 at S_0 and empty S_2.
  for (uint32_t i = 0; i < 3; ++i) {
    rel::RObject* r = const_cast<rel::RObject*>(w->RObjects(i));
    for (uint64_t n = 0; n < w->r_count[i]; ++n) {
      const rel::SPtr sp = rel::SPtr::Unpack(r[n].sptr);
      if (sp.partition == 2) {
        r[n].sptr = rel::SPtr{0, sp.index % w->s_count[0]}.Pack();
        --w->counts[i][2];
        ++w->counts[i][0];
      }
    }
  }
  w->s_count[2] = 0;
  for (uint32_t k : {1u, 4u}) {
    const BucketHistogram got = RealHistogram(*w, k, options);
    ExpectSameHistogram(SerialHistogram(*w, k), got, "empty S_2");
    EXPECT_EQ(got.buckets[2], std::vector<uint64_t>(k, 0));
  }

  // |R| = 0: one empty morsel per partition, an all-zero histogram.
  for (uint32_t i = 0; i < 3; ++i) {
    w->r_count[i] = 0;
    w->counts[i].assign(3, 0);
  }
  const BucketHistogram empty = RealHistogram(*w, 4, options);
  ExpectSameHistogram(SerialHistogram(*w, 4), empty, "|R|=0");
  EXPECT_EQ(empty.resident, std::vector<uint64_t>(3, 0));
}

TEST_F(CountBucketsTest, SharedPoolMatchesSerialReference) {
  auto w = mm::BuildMmWorkload(mgr_.get(), "pool", Shape(20000, 4, 1.1, 9));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  exec::SharedWorkerPool pool(3);
  exec::RealBackendOptions options;
  options.pool = &pool;
  options.priority = exec::QueryPriority::kHigh;
  options.morsel_tuples = 1000;
  ExpectSameHistogram(SerialHistogram(*w, 6), RealHistogram(*w, 6, options),
                      "pool");
}

TEST_F(CountBucketsTest, SimulatorMatchesRealBackend) {
  for (double theta : {0.0, 1.1}) {
    rel::RelationConfig rc = Shape(12000, 4, theta, 77);
    rc.s_objects = 9000;
    sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
    mc.num_disks = rc.num_partitions;
    sim::SimEnv env(mc);
    auto sim_w = rel::BuildWorkload(&env, rc);
    ASSERT_TRUE(sim_w.ok()) << sim_w.status().ToString();
    join::JoinExecution sim_ex(&env, *sim_w, join::JoinParams{});
    auto w = mm::BuildMmWorkload(mgr_.get(), theta == 0 ? "u" : "z", rc);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ExpectSameHistogram(exec::op::CountBuckets(sim_ex, 5),
                        RealHistogram(*w, 5, {}),
                        "theta=" + std::to_string(theta));
  }
}

// Counts metadata that disagrees with R would size the RP and RS bands
// wrong; every bucketed driver refuses it before writing either band, on
// both backends, in every build type. So is a pointer into no partition.
TEST_F(CountBucketsTest, CorruptCountsAreRefusedByEveryBucketedDriver) {
  constexpr join::Algorithm kBucketed[] = {join::Algorithm::kGrace,
                                           join::Algorithm::kHybridHash,
                                           join::Algorithm::kIndexNestedLoops};
  const rel::RelationConfig rc = Shape(6000, 3, 0.0, 13);
  auto w = mm::BuildMmWorkload(mgr_.get(), "bad", rc);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_GT(w->counts[0][2], 0u);
  ++w->counts[0][1];
  --w->counts[0][2];

  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  sim::SimEnv env(mc);
  auto sim_w = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(sim_w.ok()) << sim_w.status().ToString();
  rel::Workload bad = *sim_w;
  ++bad.counts[0][1];
  --bad.counts[0][2];

  for (join::Algorithm a : kBucketed) {
    const join::DriverSpec& driver = join::Driver(a);
    auto real = driver.real(*w, {});
    ASSERT_FALSE(real.ok()) << driver.name;
    EXPECT_EQ(real.status().code(), StatusCode::kCorruption)
        << driver.name << ": " << real.status().ToString();
    auto simulated = driver.sim(&env, bad, join::JoinParams{});
    ASSERT_FALSE(simulated.ok()) << driver.name;
    EXPECT_EQ(simulated.status().code(), StatusCode::kCorruption)
        << driver.name << ": " << simulated.status().ToString();
  }

  // Consistent counts, but one R object points past the last partition:
  // it lands in no histogram cell, so R_0's routed counts fall short.
  --w->counts[0][1];
  ++w->counts[0][2];
  rel::RObject* r0 = const_cast<rel::RObject*>(w->RObjects(0));
  r0[0].sptr = rel::SPtr{rc.num_partitions, 0}.Pack();
  for (join::Algorithm a : kBucketed) {
    auto real = join::Driver(a).real(*w, {});
    ASSERT_FALSE(real.ok()) << join::AlgorithmName(a);
    EXPECT_EQ(real.status().code(), StatusCode::kCorruption)
        << real.status().ToString();
  }
}

// After a join has filled the workload's bucket memo, a bucketed join lays
// RS out without reading R, so the bands themselves must refuse R that
// disagrees with the metadata. Every driver does, on both backends: a
// swapped counts cell is refused by the five drivers that size bands from
// the counts (MPSM sizes MR_i from |R_i| and still joins exactly), and a
// pointer past the last partition by all six.
TEST_F(CountBucketsTest, BandsRefuseDisagreeingRAfterTheMemoFills) {
  const rel::RelationConfig rc = Shape(8000, 4, 0.0, 13);
  auto w = mm::BuildMmWorkload(mgr_.get(), "memo", rc);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  sim::SimEnv env(mc);
  auto sim_w = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(sim_w.ok()) << sim_w.status().ToString();
  ASSERT_EQ(w->counts, sim_w->counts);

  // Fill both memos with a successful bucketed join.
  const join::DriverSpec& grace = join::Driver(join::Algorithm::kGrace);
  auto real_first = grace.real(*w, {});
  ASSERT_TRUE(real_first.ok()) << real_first.status().ToString();
  EXPECT_TRUE(real_first->verified);
  EXPECT_EQ(real_first->run.histogram_scans, 1u);
  auto sim_first = grace.sim(&env, *sim_w, join::JoinParams{});
  ASSERT_TRUE(sim_first.ok()) << sim_first.status().ToString();
  EXPECT_TRUE(sim_first->verified);
  EXPECT_EQ(sim_first->histogram_scans, 1u);

  // Runs every driver; MPSM must join exactly when `mpsm_exact`, every
  // other driver must return Corruption whose message holds `names`.
  auto expect_refused = [&](bool mpsm_exact, const std::string& what,
                            const std::string& names = "") {
    for (const join::DriverSpec& driver : join::kDrivers) {
      const bool exact =
          mpsm_exact && driver.algorithm == join::Algorithm::kMpsm;
      auto real = driver.real(*w, {});
      auto simulated = driver.sim(&env, *sim_w, join::JoinParams{});
      if (exact) {
        ASSERT_TRUE(real.ok()) << what << real.status().ToString();
        EXPECT_TRUE(real->verified) << what;
        ASSERT_TRUE(simulated.ok()) << what << simulated.status().ToString();
        EXPECT_TRUE(simulated->verified) << what;
        continue;
      }
      for (const Status& st : {real.status(), simulated.status()}) {
        EXPECT_EQ(st.code(), StatusCode::kCorruption)
            << what << driver.name << ": " << st.ToString();
        EXPECT_NE(st.ToString().find(names), std::string::npos)
            << what << driver.name << ": " << st.ToString();
      }
    }
  };

  // Swapped counts cells: two foreign cells of one row (some RP band
  // overflows), and an own cell with a smaller foreign one (that RP band
  // is left short, and the own band of RS overflows).
  // Row `row` has a foreign cell `small` below both its own cell and its
  // largest foreign cell `large`.
  uint32_t row = rc.num_partitions, small = 0, large = 0;
  for (uint32_t i = 0; i < rc.num_partitions && row == rc.num_partitions;
       ++i) {
    small = large = (i + 1) % rc.num_partitions;
    for (uint32_t j = 0; j < rc.num_partitions; ++j) {
      if (j == i) continue;
      if (w->counts[i][j] < w->counts[i][small]) small = j;
      if (w->counts[i][j] > w->counts[i][large]) large = j;
    }
    if (w->counts[i][i] > w->counts[i][small]) row = i;
  }
  ASSERT_LT(row, rc.num_partitions) << "no own cell above a foreign one";
  ASSERT_GT(w->counts[row][large], w->counts[row][small]);
  for (uint32_t cell : {large, row}) {
    const std::string what = "counts[" + std::to_string(row) + "][" +
                             std::to_string(cell) + "] <-> [" +
                             std::to_string(small) + "]: ";
    std::swap(w->counts[row][cell], w->counts[row][small]);
    std::swap(sim_w->counts[row][cell], sim_w->counts[row][small]);
    expect_refused(/*mpsm_exact=*/true, what);
    std::swap(w->counts[row][cell], w->counts[row][small]);
    std::swap(sim_w->counts[row][cell], sim_w->counts[row][small]);
  }

  // Consistent counts, but one R_0 object points past the last partition.
  rel::RObject* real_r0 = const_cast<rel::RObject*>(w->RObjects(0));
  auto* sim_r0 = reinterpret_cast<rel::RObject*>(
      env.segment(sim_w->r_segs[0]).raw());
  real_r0[0].sptr = rel::SPtr{rc.num_partitions, 0}.Pack();
  sim_r0[0].sptr = real_r0[0].sptr;
  expect_refused(/*mpsm_exact=*/false, "pointer past partition D: ",
                 "points past the last S partition");
}

// One S-pointer check, as the pointer leaves the R scan (op::SPtrCheck):
// an R object pointing one past the end of its own S partition keeps the
// counts consistent, so only that check can refuse it. Every driver
// does, on both backends, whether the join counts the bucket populations
// itself (memo empty) or takes them from the memo.
TEST_F(CountBucketsTest, PointerPastItsSPartitionRefusedByEveryDriver) {
  const rel::RelationConfig rc = Shape(8000, 4, 0.0, 17);
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  for (const bool memo_filled : {false, true}) {
    const std::string prefix = memo_filled ? "filled" : "empty";
    SCOPED_TRACE(prefix);
    auto w = mm::BuildMmWorkload(mgr_.get(), prefix, rc);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    sim::SimEnv env(mc);
    auto sim_w = rel::BuildWorkload(&env, rc);
    ASSERT_TRUE(sim_w.ok()) << sim_w.status().ToString();
    if (memo_filled) {
      const join::DriverSpec& grace = join::Driver(join::Algorithm::kGrace);
      auto real = grace.real(*w, {});
      ASSERT_TRUE(real.ok() && real->verified);
      auto simulated = grace.sim(&env, *sim_w, join::JoinParams{});
      ASSERT_TRUE(simulated.ok() && simulated->verified);
    }

    rel::RObject* real_r1 = const_cast<rel::RObject*>(w->RObjects(1));
    auto* sim_r1 = reinterpret_cast<rel::RObject*>(
        env.segment(sim_w->r_segs[1]).raw());
    const uint32_t p = rel::SPtr::Unpack(real_r1[5].sptr).partition;
    real_r1[5].sptr = rel::SPtr{p, w->s_count[p]}.Pack();
    sim_r1[5].sptr = real_r1[5].sptr;
    const std::string names = "R_1 object " + std::to_string(real_r1[5].id) +
                              " points past the end of S_" +
                              std::to_string(p);
    for (const join::DriverSpec& driver : join::kDrivers) {
      auto real = driver.real(*w, {});
      auto simulated = driver.sim(&env, *sim_w, join::JoinParams{});
      for (const Status& st : {real.status(), simulated.status()}) {
        EXPECT_EQ(st.code(), StatusCode::kCorruption)
            << driver.name << ": " << st.ToString();
        EXPECT_NE(st.ToString().find(names), std::string::npos)
            << driver.name << ": " << st.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-stage behavior through full plan runs (sim + real, reference oracle)
// ---------------------------------------------------------------------------

class OperatorStageTest : public OperatorDirTest {
 protected:
  // Runs `spec` on the costed simulator; asserts the oracle check passed.
  PlanRunResult RunSim(const rel::RelationConfig& rc, const PlanSpec& spec) {
    sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
    mc.num_disks = rc.num_partitions;
    sim::SimEnv env(mc);
    auto workload = rel::BuildWorkload(&env, rc);
    EXPECT_TRUE(workload.ok()) << workload.status().ToString();
    bool verified = false;
    auto result =
        exec::op::RunPlanSim(&env, *workload, join::JoinParams{}, spec,
                             &verified);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(verified) << spec.name;
    return *result;
  }

  // Runs `spec` on the real backend; asserts the oracle check passed.
  PlanRunResult RunReal(const rel::RelationConfig& rc, const PlanSpec& spec,
                        const std::string& prefix,
                        const mm::MmJoinOptions& options = {}) {
    auto workload = mm::BuildMmWorkload(mgr_.get(), prefix, rc);
    EXPECT_TRUE(workload.ok()) << workload.status().ToString();
    auto result = mm::MmRunPlan(*workload, spec, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->verified) << spec.name;
    return result->plan;
  }
};

TEST_F(OperatorStageTest, FilterSelectivityEdges) {
  const rel::RelationConfig rc = Shape(6000, 3, 0.0, 11);

  // 100%: the full-range predicate keeps every row.
  PlanSpec all;
  all.name = "all";
  all.filters.push_back(Predicate{Column::kDate, 0, ~uint64_t{0}});
  PlanRunResult r = RunReal(rc, all, "all");
  EXPECT_EQ(r.rows_scanned, rc.r_objects);
  EXPECT_EQ(r.rows_filtered, rc.r_objects);
  EXPECT_EQ(r.output_rows, rc.r_objects);

  // 0%: an empty half-open interval keeps nothing; the sink sees no rows.
  PlanSpec none;
  none.name = "none";
  none.filters.push_back(Predicate{Column::kDate, 5, 5});
  r = RunReal(rc, none, "none");
  EXPECT_EQ(r.rows_scanned, rc.r_objects);
  EXPECT_EQ(r.rows_filtered, 0u);
  EXPECT_EQ(r.output_rows, 0u);
  EXPECT_EQ(r.checksum, 0u);

  // Conjunction: two predicates never pass more rows than either alone.
  PlanSpec conj;
  conj.name = "conj";
  conj.filters.push_back(Predicate{Column::kDate, 0, 1233});
  conj.filters.push_back(Predicate{Column::kQty, 1, 26});
  r = RunReal(rc, conj, "conj");
  EXPECT_GT(r.rows_filtered, 0u);
  EXPECT_LT(r.rows_filtered, rc.r_objects);
  EXPECT_EQ(r.output_rows, r.rows_filtered);
}

TEST_F(OperatorStageTest, GroupByCardinalities) {
  const rel::RelationConfig rc = Shape(5000, 2, 0.0, 23);

  // Zero groups: empty input produces empty output, not a zeroed group.
  PlanSpec zero;
  zero.name = "zero";
  zero.filters.push_back(Predicate{Column::kDate, 0, 0});
  zero.group_by = Column::kFlag;
  zero.aggs.push_back(AggSpec{AggOp::kCount, Column::kRId, Column::kRId});
  PlanRunResult r = RunReal(rc, zero, "zero");
  EXPECT_EQ(r.groups.size(), 0u);
  EXPECT_EQ(r.output_rows, 0u);
  EXPECT_EQ(r.checksum, 0u);

  // One group: a global aggregate (no group column) lands in key 0; the
  // counts/sums/extrema cover every accumulator kind at once.
  PlanSpec global;
  global.name = "global";
  global.aggs.push_back(AggSpec{AggOp::kCount, Column::kRId, Column::kRId});
  global.aggs.push_back(AggSpec{AggOp::kSum, Column::kQty, Column::kRId});
  global.aggs.push_back(AggSpec{AggOp::kMin, Column::kQty, Column::kRId});
  global.aggs.push_back(AggSpec{AggOp::kMax, Column::kQty, Column::kRId});
  r = RunReal(rc, global, "global");
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].key, 0u);
  EXPECT_EQ(r.groups[0].aggs[0], rc.r_objects);
  // sum/min/max of qty must be consistent: n*min <= sum <= n*max.
  EXPECT_GE(r.groups[0].aggs[1], rc.r_objects * r.groups[0].aggs[2]);
  EXPECT_LE(r.groups[0].aggs[1], rc.r_objects * r.groups[0].aggs[3]);
  EXPECT_GE(r.groups[0].aggs[2], 1u);
  EXPECT_LE(r.groups[0].aggs[3], 50u);

  // Many groups: grouping by flag yields its full 3-value domain, keys
  // sorted, counts totalling the input.
  PlanSpec flags;
  flags.name = "flags";
  flags.group_by = Column::kFlag;
  flags.aggs.push_back(AggSpec{AggOp::kCount, Column::kRId, Column::kRId});
  r = RunReal(rc, flags, "flags");
  ASSERT_EQ(r.groups.size(), 3u);
  uint64_t total = 0;
  for (size_t g = 0; g < r.groups.size(); ++g) {
    EXPECT_EQ(r.groups[g].key, g);
    total += r.groups[g].aggs[0];
  }
  EXPECT_EQ(total, rc.r_objects);
}

TEST_F(OperatorStageTest, EmptyInputPlansAcrossSinks) {
  const rel::RelationConfig rc = Shape(4096, 2, 0.0, 31);
  // Collect sink and GroupBy sink both see zero rows; both report empty
  // results, on both backends, and the reference oracle agrees (asserted
  // inside the Run helpers).
  for (bool probe : {false, true}) {
    PlanSpec spec;
    spec.name = probe ? "empty_probe" : "empty";
    spec.filters.push_back(Predicate{Column::kQty, 0, 1});  // qty >= 1 always
    spec.probe_s = probe;
    PlanRunResult sim = RunSim(rc, spec);
    PlanRunResult real =
        RunReal(rc, spec, probe ? "emptyp" : "empty");
    for (const PlanRunResult* r : {&sim, &real}) {
      EXPECT_EQ(r->rows_filtered, 0u);
      EXPECT_EQ(r->rows_joined, 0u);
      EXPECT_EQ(r->output_rows, 0u);
      EXPECT_EQ(r->checksum, 0u);
      EXPECT_TRUE(r->groups.empty());
    }
  }
}

TEST_F(OperatorStageTest, ProbeCollectReproducesTheJoin) {
  // Scan → ProbeS → Collect with no filter IS the pointer join: it must
  // reproduce the workload's expected join count and checksum exactly.
  const rel::RelationConfig rc = Shape(8192, 4, 0.5, 20260808);
  PlanSpec spec;
  spec.name = "join";
  spec.probe_s = true;

  auto workload = mm::BuildMmWorkload(mgr_.get(), "join", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto result = mm::MmRunPlan(*workload, spec, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->verified);
  EXPECT_EQ(result->plan.output_rows, workload->expected_output_count);
  EXPECT_EQ(result->plan.checksum, workload->expected_checksum);
  EXPECT_EQ(result->plan.rows_joined, rc.r_objects);

  PlanRunResult sim = RunSim(rc, spec);
  EXPECT_EQ(sim.output_rows, result->plan.output_rows);
  EXPECT_EQ(sim.checksum, result->plan.checksum);
}

// ---------------------------------------------------------------------------
// Identity matrices: the refactor's accountability tests
// ---------------------------------------------------------------------------

// Every driver: sim and real, one identical count/checksum — the
// 6 joins × 2 backends matrix.
class DriverIdentityTest : public ::testing::TestWithParam<join::DriverSpec> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  StatusOr<join::JoinRunResult> RunSim(const rel::RelationConfig& rc) {
    sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
    mc.num_disks = rc.num_partitions;
    sim::SimEnv env(mc);
    auto workload = rel::BuildWorkload(&env, rc);
    if (!workload.ok()) return workload.status();
    return GetParam().sim(&env, *workload, join::JoinParams{});
  }

  StatusOr<mm::MmJoinResult> RunReal(const rel::RelationConfig& rc) {
    auto workload = mm::BuildMmWorkload(mgr_.get(), "ws", rc);
    if (!workload.ok()) return workload.status();
    return GetParam().real(*workload, mm::MmJoinOptions{});
  }

  ScratchDir scratch_{"oplayer"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

TEST_P(DriverIdentityTest, BackendsAgree) {
  const rel::RelationConfig rc = Shape(6144, 3, 0.4, 991);

  auto sim = RunSim(rc);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  ASSERT_TRUE(sim->verified);

  auto real = RunReal(rc);
  ASSERT_TRUE(real.ok()) << real.status().ToString();

  EXPECT_TRUE(real->verified);
  EXPECT_EQ(sim->output_count, real->output_count);
  EXPECT_EQ(sim->output_checksum, real->output_checksum);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DriverIdentityTest,
                         ::testing::ValuesIn(join::kDrivers),
                         [](const auto& info) {
                           return DriverTestName(info.param.algorithm);
                         });

// Every built-in plan: sim and real — one identical result (counts,
// groups, checksum).
class PlanIdentityTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  ScratchDir scratch_{"plan"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

TEST_P(PlanIdentityTest, BackendsAgree) {
  const rel::RelationConfig rc = Shape(8192, 4, 0.5, 20260808);
  const exec::op::PlanSpec* spec = exec::op::FindPlan(GetParam());
  ASSERT_NE(spec, nullptr);

  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  sim::SimEnv env(mc);
  auto sim_workload = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(sim_workload.ok());
  bool sim_verified = false;
  auto sim = exec::op::RunPlanSim(&env, *sim_workload, join::JoinParams{},
                                  *spec, &sim_verified);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_TRUE(sim_verified);

  auto workload = mm::BuildMmWorkload(mgr_.get(), "plan", rc);
  ASSERT_TRUE(workload.ok());
  auto real = mm::MmRunPlan(*workload, *spec, mm::MmJoinOptions{});
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  EXPECT_TRUE(real->verified);
  EXPECT_TRUE(exec::op::PlanResultsMatch(*sim, real->plan));
  EXPECT_EQ(sim->checksum, real->plan.checksum);
}

INSTANTIATE_TEST_SUITE_P(AllPlans, PlanIdentityTest,
                         ::testing::ValuesIn(exec::op::kPlanNames),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace mmjoin
