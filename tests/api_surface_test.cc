// Umbrella-header smoke test: include only <mmjoin/mmjoin.h> and exercise
// one entry point from every public module, end to end. Guards against the
// public API drifting out of the umbrella.
#include "mmjoin/mmjoin.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include "scratch_dir.h"

namespace {

using namespace mmjoin;

TEST(ApiSurfaceTest, EveryModuleReachableFromUmbrella) {
  // util
  Status st = Status::OK();
  EXPECT_TRUE(st.ok());

  // disk + model measurement
  const disk::DiskGeometry geometry;
  disk::BandMeasureOptions band_options;
  band_options.area_blocks = 4000;
  band_options.band_sizes = {1, 400};
  const model::DttCurves dtt = model::MeasureDttCurves(geometry, band_options);
  EXPECT_GT(dtt.read.Ms(400), 0.0);

  // vm
  disk::DiskArray disks(1, geometry);
  vm::PageCache cache(4, vm::PolicyKind::kLru, &disks);
  EXPECT_FALSE(cache.Touch(vm::PageId{1, 0}, 0, 0, false, true).hit);

  // sim + rel + join + model prediction
  sim::MachineConfig machine = sim::MachineConfig::SequentSymmetry1996();
  sim::SimEnv env(machine);
  rel::RelationConfig relation;
  relation.r_objects = relation.s_objects = 2048;
  auto workload = rel::BuildWorkload(&env, relation);
  ASSERT_TRUE(workload.ok());
  join::JoinParams params;
  params.m_rproc_bytes = 128 << 10;
  params.m_sproc_bytes = 128 << 10;
  auto run = join::RunGrace(&env, *workload, params);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->verified);
  const auto oracle = join::OracleJoin(&env, *workload);
  EXPECT_EQ(oracle.checksum, run->output_checksum);

  model::ModelInputs inputs;
  inputs.machine = machine;
  inputs.relation = relation;
  inputs.skew = workload->skew;
  inputs.params = params;
  inputs.dtt = dtt;
  EXPECT_GT(model::Predict(join::Algorithm::kGrace, inputs).total_ms(), 0.0);
  EXPECT_GT(model::Ylru(1000, 100, 1000, 10, 500), 0.0);
  EXPECT_GT(model::ProbEmptyUrnsAtMost(10, 5, 9), 0.0);

  // mmap: segments, relations, joins, the durable store's index probe
  const ScratchDir scratch("api_surface");
  ASSERT_TRUE(scratch.created()) << scratch.path();
  mm::SegmentManager mgr(scratch.path());
  {
    auto w = mm::BuildMmWorkload(&mgr, "api", relation);
    ASSERT_TRUE(w.ok());
    auto mm_run = mm::MmSortMerge(*w);
    ASSERT_TRUE(mm_run.ok());
    EXPECT_TRUE(mm_run->verified);

    ASSERT_TRUE(mm::PersistMmWorkload(&mgr, "api", &*w).ok());
    auto probe = mm::MmIndexProbe(&mgr, "api", *w);
    ASSERT_TRUE(probe.ok());
    EXPECT_TRUE(probe->verified);
  }
  (void)mm::DeleteMmWorkload(&mgr, "api", relation.num_partitions);

  // heap
  std::vector<uint64_t> v{3, 1, 2};
  HeapSort(&v, [](uint64_t a, uint64_t b) { return a < b; }, nullptr);
  EXPECT_EQ(v.front(), 1u);
  MergeHeap heap(2);
  heap.Insert(MergeEntry{1, 0});
  EXPECT_EQ(heap.Min().key, 1u);
}

}  // namespace
