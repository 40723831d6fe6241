// The real backend's execution knobs across every driver: bit-identity of
// the join over workers x paging at uniform and Zipf-skewed shapes,
// op::SFetch's batching at the scratch-capacity edges, the NUMA option
// fallback on non-NUMA hosts, the kernel/numa metrics surface, and the
// RUSAGE_THREAD per-pass fault accounting invariant (sum of per-pass
// faults == total faults).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>

#include "driver_test_name.h"
#include "exec/kernels.h"
#include "exec/numa.h"
#include "exec/op/stages.h"
#include "exec/real_backend.h"
#include "join/drivers.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "obs/metrics.h"

namespace mmjoin::exec {
namespace {

class RealJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    dir_ = ::testing::TempDir() + "real_backend_" +
           std::to_string(::getpid()) + "_" + name;
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  mm::MmWorkload Build(double theta) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = 8192;
    rc.num_partitions = 8;
    rc.zipf_theta = theta;
    auto w = mm::BuildMmWorkload(mgr_.get(), "w" + std::to_string(builds_++),
                                 rc);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return std::move(w).value();
  }

  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
  int builds_ = 0;
};

// ---------------------------------------------------------------------------
// Identity across the real joins: every driver x workers x paging
// combination must reproduce the workload's expected count/checksum.
// ---------------------------------------------------------------------------

class RealJoinIdentityTest
    : public RealJoinTest,
      public ::testing::WithParamInterface<join::DriverSpec> {};

TEST_P(RealJoinIdentityTest, WorkerPagingMatrix) {
  const join::DriverSpec& driver = GetParam();
  for (double theta : {0.0, 1.1}) {
    const mm::MmWorkload w = Build(theta);
    for (uint32_t workers : {1u, 2u, 8u}) {
      for (PagingMode paging :
           {PagingMode::kNone, PagingMode::kAdvise, PagingMode::kPopulate}) {
        mm::MmJoinOptions opt;
        opt.max_threads = workers;
        opt.paging = paging;
        auto r = driver.real(w, opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        // verified == matched the workload's expected count/checksum, so
        // every combination passing pins the identity (and the
        // simulator's, via cross_backend_test).
        EXPECT_TRUE(r->verified) << "theta=" << theta
                                 << " workers=" << workers
                                 << " paging=" << PagingModeName(paging);
        EXPECT_EQ(r->output_count, w.expected_output_count);
        EXPECT_EQ(r->output_checksum, w.expected_checksum);
        // Every probe site batches on the real backend.
        EXPECT_GT(r->run.kernel_batches, 0u);
        EXPECT_EQ(r->run.kernel_requests, r->output_count);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, RealJoinIdentityTest,
                         ::testing::ValuesIn(join::kDrivers),
                         [](const auto& info) {
                           return DriverTestName(info.param.algorithm);
                         });

// ---------------------------------------------------------------------------
// op::SFetch: every pushed ref is dereferenced exactly once, in
// ceil(n / kProbeScratch) kernel batches — full ones from Push, the partial
// tail from Finish — on both sides of the scratch capacity.
// ---------------------------------------------------------------------------

TEST_F(RealJoinTest, SFetchDereferencesEveryRefInFullBatches) {
  const mm::MmWorkload w = Build(0.0);
  const uint64_t cap = op::kProbeScratch;
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, cap - 1, cap, cap + 1,
                     3 * cap}) {
    SCOPED_TRACE(n);
    RealBackend ex(w, join::JoinParams{}, RealBackendOptions{});
    op::SFetch<RealBackend> fetch(ex, 0);
    // The scalar reference: one dereference and one digest per ref,
    // cycling through R_0 (n may exceed |R_0|).
    uint64_t count = 0, digest = 0;
    const rel::RObject* r = w.RObjects(0);
    for (uint64_t k = 0; k < n; ++k) {
      const rel::RObject& obj = r[k % w.r_count[0]];
      fetch.Push(obj.id, obj.sptr);
      const rel::SPtr sp = rel::SPtr::Unpack(obj.sptr);
      digest += rel::OutputDigest(obj.id,
                                  w.SObjects(sp.partition)[sp.index].key);
      ++count;
    }
    fetch.Finish();
    const join::JoinRunResult res = ex.Finish();
    EXPECT_EQ(res.output_count, count);
    EXPECT_EQ(res.output_checksum, digest);
    EXPECT_EQ(res.kernel_requests, n);
    EXPECT_EQ(res.kernel_batches, (n + cap - 1) / cap);
  }
}

// ---------------------------------------------------------------------------
// NUMA placement options: graceful fallback on hosts without the nodes.
// ---------------------------------------------------------------------------

TEST_F(RealJoinTest, NumaModesFallBackGracefullyAndVerify) {
  const mm::MmWorkload w = Build(0.0);
  const uint32_t nodes = DetectNumaNodes();
  EXPECT_GE(nodes, 1u);
  for (NumaMode numa :
       {NumaMode::kNone, NumaMode::kInterleave, NumaMode::kLocal}) {
    for (const join::DriverSpec& driver : join::kDrivers) {
      mm::MmJoinOptions opt;
      opt.numa = numa;
      auto r = driver.real(w, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified)
          << driver.name << " numa=" << NumaModeName(numa);
      // Placement is best-effort but must never error out on this host:
      // single-node machines degrade to counted no-ops.
      EXPECT_TRUE(r->numa_status.ok()) << r->numa_status.ToString();
      EXPECT_EQ(r->run.numa_mbind_errors, 0u);
      if (numa == NumaMode::kNone) {
        EXPECT_EQ(r->run.numa_nodes, 0u);
        EXPECT_EQ(r->run.numa_mbind_calls, 0u);
        EXPECT_EQ(r->run.numa_first_touch_pages, 0u);
      } else {
        EXPECT_EQ(r->run.numa_nodes, nodes);
        if (nodes <= 1) {
          EXPECT_EQ(r->run.numa_mbind_calls, 0u);
        }
        if (numa == NumaMode::kLocal &&
            driver.algorithm != join::Algorithm::kMpsm) {
          // The RP bands are first-touched even on one node (it is just a
          // pre-fault). MPSM has no RP: it binds its node bands instead.
          EXPECT_GT(r->run.numa_first_touch_pages, 0u) << driver.name;
        }
      }
    }
  }
}

TEST(NumaUnitTest, BindInterleavedSingleNodeIsACountedNoOp) {
  alignas(4096) static char buf[4096];
  bool applied = true;
  EXPECT_TRUE(BindInterleaved(buf, sizeof(buf), 1, &applied).ok());
  EXPECT_FALSE(applied);
  applied = true;
  EXPECT_TRUE(BindInterleaved(buf, 0, 4, &applied).ok());
  EXPECT_FALSE(applied);
}

// ---------------------------------------------------------------------------
// Metrics surface: join.kernel.* on every real run, join.numa.* exactly
// when placement is on, and no join.scatter.* anywhere.
// ---------------------------------------------------------------------------

TEST_F(RealJoinTest, MetricsExportMatchesOptions) {
  const mm::MmWorkload w = Build(0.0);
  for (const join::DriverSpec& driver : join::kDrivers) {
    for (NumaMode numa : {NumaMode::kNone, NumaMode::kLocal}) {
      mm::MmJoinOptions opt;
      opt.numa = numa;
      auto r = driver.real(w, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      obs::MetricsRegistry reg;
      r->ExportMetrics(&reg);
      const auto& counters = reg.counters();
      for (const char* name : {"join.kernel.batches", "join.kernel.requests",
                               "join.kernel.prefetches"}) {
        EXPECT_EQ(counters.count(name), 1u) << driver.name << " " << name;
      }
      EXPECT_EQ(reg.counter("join.kernel.requests").value(),
                r->run.kernel_requests);
      bool has_numa = false;
      for (const auto& [name, counter] : counters) {
        EXPECT_NE(name.rfind("join.scatter.", 0), 0u) << name;
        if (name.rfind("join.numa.", 0) == 0) has_numa = true;
      }
      EXPECT_EQ(has_numa, numa != NumaMode::kNone) << driver.name;
      if (numa == NumaMode::kLocal) {
        EXPECT_GE(reg.counter("join.numa.nodes").value(), 1u);
        EXPECT_EQ(reg.counter("join.numa.first_touch_pages").value(),
                  r->run.numa_first_touch_pages);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-pass fault accounting: with RUSAGE_THREAD the per-pass deltas must
// sum exactly to the total (the process-wide RUSAGE_SELF counter made
// concurrent passes double-count).
// ---------------------------------------------------------------------------

TEST_F(RealJoinTest, PassFaultsSumToTotalFaults) {
  const mm::MmWorkload w = Build(1.1);
  for (const join::DriverSpec& driver : join::kDrivers) {
    for (uint32_t workers : {1u, 8u}) {
      mm::MmJoinOptions opt;
      opt.max_threads = workers;
      auto r = driver.real(w, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      uint64_t sum = 0;
      for (const auto& pass : r->run.passes) sum += pass.faults;
      EXPECT_EQ(sum, r->run.faults)
          << driver.name << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace mmjoin::exec
