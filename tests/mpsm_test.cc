// MPSM identity matrix (EXT-9): the massively-parallel sort-merge driver
// must produce the IDENTICAL join — same verified output_count, same
// order-independent output_checksum, same pass structure — as the
// sort-merge driver across every combination of workers {1, 2, 8} x NUMA
// mode {none, interleave, local} on both a uniform and a Zipf-skewed
// workload. MPSM is a different decomposition of the same join (private
// sorted ref runs, one S sweep per run), so any divergence is a
// run-building or sweep bug, never acceptable drift.
//
// MultiRunMatchesSortMergeOnBothBackends shrinks M_Rproc so each R
// partition's refs sort as several runs, including a short last run,
// and checks both backends with small and whole-partition morsels.
// RealSweepVisitsEachRunInPointerOrder records the S pointers the real
// backend's sweep dereferences: the join oracle sums commutatively, so
// only the order shows whether every run was sorted.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/join_drivers.h"
#include "exec/real_backend.h"
#include "join/join_common.h"
#include "join/mpsm.h"
#include "join/sort_merge.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "rel/generator.h"
#include "scratch_dir.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

// A morsel larger than any partition: MPSM's passes run over R
// partitions of equal size, so every partition's pass is one morsel.
constexpr uint64_t kWholePartition = uint64_t{1} << 40;

rel::RelationConfig Shape(uint64_t n, uint32_t d, double theta,
                          uint64_t seed) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = n;
  rc.num_partitions = d;
  rc.zipf_theta = theta;
  rc.seed = seed;
  return rc;
}

class MpsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  ScratchDir scratch_{"mpsm"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

/// Asserts one mpsm run against the sort-merge baseline on the same
/// workload: verified, bit-identical output, and the same pass labels
/// (both drivers report setup/pass0/pass1/sort+merge+join).
void ExpectSameJoin(const mm::MmJoinResult& sm, const mm::MmJoinResult& mp,
                    const std::string& what) {
  EXPECT_TRUE(sm.verified) << what;
  EXPECT_TRUE(mp.verified) << what;
  EXPECT_EQ(sm.output_count, mp.output_count) << what;
  EXPECT_EQ(sm.output_checksum, mp.output_checksum) << what;
  ASSERT_EQ(sm.run.passes.size(), mp.run.passes.size()) << what;
  for (size_t p = 0; p < sm.run.passes.size(); ++p) {
    EXPECT_EQ(sm.run.passes[p].label, mp.run.passes[p].label) << what;
  }
}

TEST_F(MpsmTest, IdentityMatrixUniform) {
  const rel::RelationConfig rc = Shape(8192, 4, 0.0, 20260809);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "u", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto sm = mm::MmSortMerge(*workload, mm::MmJoinOptions{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();

  const uint32_t worker_counts[] = {1, 2, 8};
  const exec::NumaMode numa_modes[] = {exec::NumaMode::kNone,
                                       exec::NumaMode::kInterleave,
                                       exec::NumaMode::kLocal};
  for (uint32_t workers : worker_counts) {
    for (exec::NumaMode numa : numa_modes) {
      mm::MmJoinOptions opt;
      opt.max_threads = workers;
      opt.numa = numa;
      auto mp = mm::MmMpsm(*workload, opt);
      ASSERT_TRUE(mp.ok()) << mp.status().ToString();
      const std::string what =
          "workers=" + std::to_string(workers) +
          " numa=" + std::to_string(static_cast<int>(numa));
      ExpectSameJoin(*sm, *mp, what);
    }
  }
}

TEST_F(MpsmTest, IdentityMatrixZipfSkew) {
  const rel::RelationConfig rc = Shape(8192, 4, 0.9, 991);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "z", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto sm = mm::MmSortMerge(*workload, mm::MmJoinOptions{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();

  const uint32_t worker_counts[] = {1, 2, 8};
  for (uint32_t workers : worker_counts) {
    mm::MmJoinOptions opt;
    opt.max_threads = workers;
    opt.numa = exec::NumaMode::kLocal;
    auto mp = mm::MmMpsm(*workload, opt);
    ASSERT_TRUE(mp.ok()) << mp.status().ToString();
    ExpectSameJoin(*sm, *mp, "zipf workers=" + std::to_string(workers));
  }
}

TEST_F(MpsmTest, SimBackendMatchesSortMerge) {
  // The same template runs on the simulated backend: identical output
  // and pass labels there too (and deterministically, since simulated
  // time has no scheduling noise).
  const rel::RelationConfig rc = Shape(6000, 3, 0.5, 1234);
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  sim::SimEnv env(mc);
  auto workload = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  auto sm = join::RunSortMerge(&env, *workload, join::JoinParams{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto mp = join::RunMpsm(&env, *workload, join::JoinParams{});
  ASSERT_TRUE(mp.ok()) << mp.status().ToString();

  EXPECT_TRUE(sm->verified && mp->verified);
  EXPECT_EQ(sm->output_count, mp->output_count);
  EXPECT_EQ(sm->output_checksum, mp->output_checksum);
  ASSERT_EQ(sm->passes.size(), mp->passes.size());
  for (size_t p = 0; p < sm->passes.size(); ++p) {
    EXPECT_EQ(sm->passes[p].label, mp->passes[p].label);
  }
}

TEST_F(MpsmTest, MultiRunMatchesSortMergeOnBothBackends) {
  // L = m_rproc_bytes / 16 refs per run. 64 leaves a short last run in
  // every partition (750 and 6000 refs), 125 divides both, 1 makes every
  // ref its own run.
  const uint64_t run_lens[] = {64, 125, 1};
  for (const uint32_t d : {1u, 8u}) {
    rel::RelationConfig rc = Shape(6000, d, 1.1, 4242 + d);
    rc.s_objects = 2500;
    const std::string tag = "d=" + std::to_string(d);

    sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
    mc.num_disks = d;
    sim::SimEnv env(mc);
    auto sim_workload = rel::BuildWorkload(&env, rc);
    ASSERT_TRUE(sim_workload.ok()) << sim_workload.status().ToString();
    auto sim_sm = join::RunSortMerge(&env, *sim_workload, join::JoinParams{});
    ASSERT_TRUE(sim_sm.ok()) << sim_sm.status().ToString();
    ASSERT_TRUE(sim_sm->verified);

    auto workload = mm::BuildMmWorkload(mgr_.get(), "mr" + std::to_string(d), rc);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    auto sm = mm::MmSortMerge(*workload, mm::MmJoinOptions{});
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    EXPECT_EQ(sm->output_count, sim_sm->output_count) << tag;
    EXPECT_EQ(sm->output_checksum, sim_sm->output_checksum) << tag;

    bool short_last_run = false;
    for (const uint64_t len : run_lens) {
      for (uint32_t i = 0; i < d; ++i) {
        ASSERT_LT(len, workload->r_count[i]) << tag << " L=" << len;
        short_last_run |= workload->r_count[i] % len != 0;
      }
      const std::string what = tag + " L=" + std::to_string(len);

      join::JoinParams params;
      params.m_rproc_bytes = len * 16;
      auto sim_mp = join::RunMpsm(&env, *sim_workload, params);
      ASSERT_TRUE(sim_mp.ok()) << sim_mp.status().ToString();
      EXPECT_TRUE(sim_mp->verified) << what;
      EXPECT_EQ(sim_mp->output_count, sim_sm->output_count) << what;
      EXPECT_EQ(sim_mp->output_checksum, sim_sm->output_checksum) << what;
      EXPECT_EQ(sim_mp->irun, len) << what;

      // 100 splits runs and run ranges across morsels; kWholePartition
      // gives every partition's pass one morsel.
      for (const uint64_t morsel : {uint64_t{100}, kWholePartition}) {
        mm::MmJoinOptions opt;
        opt.max_threads = 4;
        opt.morsel_tuples = morsel;
        opt.m_rproc_bytes = len * 16;
        auto mp = mm::MmMpsm(*workload, opt);
        ASSERT_TRUE(mp.ok()) << mp.status().ToString();
        ExpectSameJoin(*sm, *mp, what + " morsel=" + std::to_string(morsel));
      }
    }
    EXPECT_TRUE(short_last_run) << tag;
  }
}

/// A real backend that records, per partition, the S pointers the driver
/// hands to RequestSBatch or to ProbeRun (a run probed in place), in the
/// order it hands them over, and then dereferences them as usual. Each partition's refs must arrive from one
/// morsel at a time (one worker, or whole-partition morsels).
class SweepRecordingBackend : public exec::RealBackend {
 public:
  SweepRecordingBackend(const mm::MmWorkload& workload,
                        const join::JoinParams& params,
                        const exec::RealBackendOptions& options)
      : exec::RealBackend(workload, params, options), sptrs(D()) {}

  void RequestSBatch(uint32_t i, const exec::SRef* refs, uint64_t n) {
    Record(i, refs, n);
    exec::RealBackend::RequestSBatch(i, refs, n);
  }
  // The sweep probes each run in place: record the refs of the range.
  void ProbeRun(uint32_t i, Seg seg, uint64_t offset, uint64_t n) {
    Record(i, reinterpret_cast<const exec::SRef*>(seg->base + offset), n);
    exec::RealBackend::ProbeRun(i, seg, offset, n);
  }

  std::vector<std::vector<uint64_t>> sptrs;

 private:
  void Record(uint32_t i, const exec::SRef* refs, uint64_t n) {
    for (uint64_t k = 0; k < n; ++k) sptrs[i].push_back(refs[k].sptr);
  }
};

TEST_F(MpsmTest, RealSweepVisitsEachRunInPointerOrder) {
  // Each sorted run sweeps S in pointer order, so partition i's sequence
  // of S pointers falls back at most once per run boundary: at most
  // runs_i - 1 descents. L = 64 cuts |R_i| = 1500 into 24 runs, the last
  // one short; the default L sorts each partition as one run.
  rel::RelationConfig rc = Shape(6000, 4, 1.1, 77);
  rc.s_objects = 2500;
  auto workload = mm::BuildMmWorkload(mgr_.get(), "sweep", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  for (const uint64_t len : {uint64_t{64}, uint64_t{0}}) {
    join::JoinParams params;
    if (len != 0) params.m_rproc_bytes = len * 16;
    const uint64_t run_len = params.m_rproc_bytes / 16;
    for (const uint32_t workers : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "L=" << run_len
                                      << " workers=" << workers);
      exec::RealBackendOptions options;
      options.max_threads = workers;
      options.morsel_tuples = kWholePartition;
      SweepRecordingBackend ex(*workload, params, options);
      auto run = exec::Mpsm(ex, params);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(run->verified);
      for (uint32_t i = 0; i < rc.num_partitions; ++i) {
        const std::vector<uint64_t>& seen = ex.sptrs[i];
        ASSERT_EQ(seen.size(), workload->r_count[i]) << "partition " << i;
        const uint64_t runs = (seen.size() + run_len - 1) / run_len;
        if (len != 0) {
          ASSERT_GT(runs, 1u);
        }
        uint64_t descents = 0;
        for (size_t k = 1; k < seen.size(); ++k) {
          descents += seen[k] < seen[k - 1];
        }
        EXPECT_LE(descents, runs - 1) << "partition " << i;
      }
    }
  }
}

}  // namespace
}  // namespace mmjoin
