// The real backend's execution knobs across every driver: bit-identity of
// the join over workers x paging at uniform and Zipf-skewed shapes, the
// width of the join temporaries against the simulator's (16-byte refs
// against 128-byte objects, with the same join on both),
// op::SFetch's batching at the scratch-capacity edges, the NUMA option
// fallback on non-NUMA hosts, the kernel/numa metrics surface, and the
// RUSAGE_THREAD per-pass fault accounting invariant (sum of per-pass
// faults == total faults), and the per-workload bucket memo (one count per
// K, exact hits, a race-free first fill).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver_test_name.h"
#include "exec/kernels.h"
#include "exec/numa.h"
#include "exec/join_drivers.h"
#include "exec/op/stages.h"
#include "exec/real_backend.h"
#include "join/drivers.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "obs/metrics.h"
#include "rel/generator.h"
#include "sim/sim_env.h"

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
// Tuple width: every RP_i and RS_i (and sort-merge's Merge and Swap areas)
// holds 16 bytes per tuple on the real backend and 128 on the simulator,
// and both backends produce the same join and the same plan.
// ---------------------------------------------------------------------------

/// A backend that records the bytes each temporary is created with, by
/// name, and the laid-out bytes of every RP_i.
template <typename Base>
class RecordingBackend : public Base {
 public:
  using Base::Base;

  StatusOr<typename Base::Seg> CreateSegment(const std::string& name,
                                             uint32_t disk, uint64_t bytes) {
    {
      // Sort-merge creates its Swap areas on the worker threads.
      std::lock_guard<std::mutex> lock(mu_);
      created_[name] = bytes;
    }
    return Base::CreateSegment(name, disk, bytes);
  }
  Status CreateRpSegments() {
    MMJOIN_RETURN_NOT_OK(Base::CreateRpSegments());
    rp_bytes_.clear();
    for (uint32_t i = 0; i < this->D(); ++i) {
      rp_bytes_.push_back(this->RpSubOffset(i, this->D()));
    }
    return Status::OK();
  }

  const std::map<std::string, uint64_t>& created() const { return created_; }
  const std::vector<uint64_t>& rp_bytes() const { return rp_bytes_; }

 private:
  std::mutex mu_;
  std::map<std::string, uint64_t> created_;
  std::vector<uint64_t> rp_bytes_;
};

using RecordingReal = RecordingBackend<RealBackend>;
using RecordingSim = RecordingBackend<join::JoinExecution>;
static_assert(Backend<RecordingReal> && Backend<RecordingSim>);
static_assert(sizeof(RecordingReal::Tuple) == 16);
static_assert(sizeof(RecordingSim::Tuple) == 128);

template <Backend B>
StatusOr<join::JoinRunResult> Drive(join::Algorithm a, B& ex,
                                    const join::JoinParams& params) {
  switch (a) {
    case join::Algorithm::kNestedLoops:
      return NestedLoops(ex, params);
    case join::Algorithm::kSortMerge:
      return SortMerge(ex, params);
    case join::Algorithm::kMpsm:
      return Mpsm(ex, params);
    case join::Algorithm::kGrace:
      return Grace(ex, params);
    case join::Algorithm::kHybridHash:
      return HybridHash(ex, params);
    case join::Algorithm::kIndexNestedLoops:
      return IndexNestedLoops(ex, params);
  }
  return Status::InvalidArgument("unknown driver");
}

/// True for the temporaries that hold join tuples: RS_i and sort-merge's
/// Merge_i and Swap areas (RP_i is checked through its layout).
bool HoldsTuples(const std::string& name) {
  return name.rfind("RS", 0) == 0 || name.rfind("Merge", 0) == 0 ||
         name.rfind("Swap", 0) == 0;
}

class TupleWidthTest
    : public RealJoinTest,
      public ::testing::WithParamInterface<join::DriverSpec> {};

TEST_P(TupleWidthTest, RealTemporariesHoldRefsSimulatorObjects) {
  const join::Algorithm algorithm = GetParam().algorithm;
  for (uint32_t d : {1u, 8u}) {
    for (double theta : {0.0, 1.1}) {
      SCOPED_TRACE("D=" + std::to_string(d) +
                   " theta=" + std::to_string(theta));
      rel::RelationConfig rc;
      rc.r_objects = 3000;
      rc.s_objects = 5000;  // |S| != |R|
      rc.num_partitions = d;
      rc.zipf_theta = theta;
      join::JoinParams params;
      // A budget of four pages: sort-merge merges its runs through Swap
      // areas, and Grace spreads RS_i over several buckets.
      params.m_rproc_bytes = 4 * 4096;
      params.m_sproc_bytes = params.m_rproc_bytes;

      sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
      mc.num_disks = d;
      sim::SimEnv env(mc);
      auto sim_workload = rel::BuildWorkload(&env, rc);
      ASSERT_TRUE(sim_workload.ok()) << sim_workload.status().ToString();
      RecordingSim sim(&env, *sim_workload, params);
      auto sim_run = Drive(algorithm, sim, params);
      ASSERT_TRUE(sim_run.ok()) << sim_run.status().ToString();

      auto real_workload = mm::BuildMmWorkload(
          mgr_.get(), "w" + std::to_string(builds_++), rc);
      ASSERT_TRUE(real_workload.ok()) << real_workload.status().ToString();
      RecordingReal real(*real_workload, params, RealBackendOptions{});
      auto real_run = Drive(algorithm, real, params);
      ASSERT_TRUE(real_run.ok()) << real_run.status().ToString();

      // RP_i: every foreign R_i object as one tuple of the backend's width.
      ASSERT_EQ(real.rp_bytes().size(), sim.rp_bytes().size());
      for (uint32_t i = 0; i < real.rp_bytes().size(); ++i) {
        uint64_t foreign = 0;
        for (uint32_t j = 0; j < d; ++j) {
          if (j != i) foreign += real_workload->counts[i][j];
        }
        EXPECT_EQ(real.rp_bytes()[i], foreign * 16) << "RP" << i;
        EXPECT_EQ(sim.rp_bytes()[i], foreign * 128) << "RP" << i;
      }
      // RS_i, Merge_i, Swap: the same tuples on both backends, 16 bytes
      // each on the real one and 128 on the simulator. Every other
      // temporary (MPSM's MR_i, index-NL's IX_i) holds refs on both.
      EXPECT_EQ(real.created().size(), sim.created().size());
      for (const auto& [name, sim_bytes] : sim.created()) {
        ASSERT_EQ(real.created().count(name), 1u) << name;
        const uint64_t real_bytes = real.created().at(name);
        if (!HoldsTuples(name)) {
          EXPECT_EQ(real_bytes, sim_bytes) << name;
          continue;
        }
        EXPECT_EQ(real_bytes % 16, 0u) << name;
        EXPECT_EQ(sim_bytes % 128, 0u) << name;
        EXPECT_EQ(real_bytes / 16, sim_bytes / 128) << name;
      }

      // The same join and the same plan.
      EXPECT_TRUE(sim_run->verified);
      EXPECT_TRUE(real_run->verified);
      EXPECT_EQ(real_run->output_count, sim_run->output_count);
      EXPECT_EQ(real_run->output_checksum, sim_run->output_checksum);
      EXPECT_EQ(real_run->irun, sim_run->irun);
      EXPECT_EQ(real_run->k_buckets, sim_run->k_buckets);
      EXPECT_EQ(real_run->tsize, sim_run->tsize);
      EXPECT_EQ(real_run->npass, sim_run->npass);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, TupleWidthTest,
                         ::testing::ValuesIn(join::kDrivers),
                         [](const auto& info) {
                           return DriverTestName(info.param.algorithm);
                         });

// ---------------------------------------------------------------------------
// Bucket memo: Grace, hybrid hash and index-NL count the bucket populations
// once per workload and K (join.histogram_scans = 1), then lay RS out from
// the workload's memo without reading R (0). Count, checksum and plan never
// depend on which.
// ---------------------------------------------------------------------------

constexpr join::Algorithm kBucketed[] = {join::Algorithm::kGrace,
                                         join::Algorithm::kHybridHash,
                                         join::Algorithm::kIndexNestedLoops};

class BucketMemoTest : public RealJoinTest {
 protected:
  /// |R| = 3000 and |S| = 5000.
  mm::MmWorkload BuildShape(uint32_t d, double theta) {
    rel::RelationConfig rc;
    rc.r_objects = 3000;
    rc.s_objects = 5000;
    rc.num_partitions = d;
    rc.zipf_theta = theta;
    auto w = mm::BuildMmWorkload(mgr_.get(), "w" + std::to_string(builds_++),
                                 rc);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return std::move(w).value();
  }

  /// A four-page M_Rproc, so RS_i spreads over several buckets.
  static mm::MmJoinOptions SmallBudget() {
    mm::MmJoinOptions opt;
    opt.m_rproc_bytes = 4 * 4096;
    return opt;
  }

  /// Runs `a`, asserts an exact join, and returns its histogram scans
  /// after checking that the join.histogram_scans metric reports them.
  static StatusOr<mm::MmJoinResult> Run(join::Algorithm a,
                                        const mm::MmWorkload& w,
                                        const mm::MmJoinOptions& opt,
                                        uint32_t* scans) {
    auto r = join::Driver(a).real(w, opt);
    if (!r.ok()) return r;
    EXPECT_TRUE(r->verified) << join::AlgorithmName(a);
    obs::MetricsRegistry reg;
    r->ExportMetrics(&reg);
    EXPECT_EQ(reg.counters().count("join.histogram_scans"), 1u);
    EXPECT_EQ(reg.counter("join.histogram_scans").value(),
              r->run.histogram_scans);
    *scans = r->run.histogram_scans;
    return r;
  }
};

TEST_F(BucketMemoTest, HitsMatchMissesAndEveryKCountsOnce) {
  for (uint32_t d : {1u, 8u}) {
    for (double theta : {0.0, 1.1}) {
      for (join::Algorithm a : kBucketed) {
        SCOPED_TRACE(std::string(join::AlgorithmName(a)) +
                     " D=" + std::to_string(d) +
                     " theta=" + std::to_string(theta));
        const mm::MmWorkload w = BuildShape(d, theta);
        uint32_t scans = 0;
        auto miss = Run(a, w, SmallBudget(), &scans);
        ASSERT_TRUE(miss.ok()) << miss.status().ToString();
        EXPECT_EQ(scans, 1u);
        auto hit = Run(a, w, SmallBudget(), &scans);
        ASSERT_TRUE(hit.ok()) << hit.status().ToString();
        EXPECT_EQ(scans, 0u);
        EXPECT_EQ(hit->output_count, miss->output_count);
        EXPECT_EQ(hit->output_checksum, miss->output_checksum);
        EXPECT_EQ(hit->run.k_buckets, miss->run.k_buckets);
        EXPECT_EQ(hit->run.tsize, miss->run.tsize);

        // Another K through k_buckets, then through m_rproc_bytes: each
        // counts once and joins exactly.
        mm::MmJoinOptions by_k = SmallBudget();
        by_k.k_buckets = miss->run.k_buckets + 3;
        mm::MmJoinOptions by_budget = SmallBudget();
        by_budget.m_rproc_bytes = 64 * 4096;
        std::vector<uint32_t> ks{miss->run.k_buckets};
        for (const mm::MmJoinOptions& opt : {by_k, by_budget}) {
          auto first = Run(a, w, opt, &scans);
          ASSERT_TRUE(first.ok()) << first.status().ToString();
          EXPECT_EQ(scans, 1u);
          EXPECT_EQ(std::count(ks.begin(), ks.end(), first->run.k_buckets), 0)
              << "K=" << first->run.k_buckets << " was joined before";
          ks.push_back(first->run.k_buckets);
          auto again = Run(a, w, opt, &scans);
          ASSERT_TRUE(again.ok()) << again.status().ToString();
          EXPECT_EQ(scans, 0u);
          EXPECT_EQ(again->output_checksum, first->output_checksum);
        }
        EXPECT_EQ(w.bucket_memo.size(), 3u);
      }
    }
  }
}

TEST_F(BucketMemoTest, OneCountServesAllThreeDrivers) {
  const mm::MmWorkload w = BuildShape(8, 1.1);
  for (join::Algorithm a : kBucketed) {
    uint32_t scans = 0;
    auto r = Run(a, w, SmallBudget(), &scans);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(scans, a == join::Algorithm::kGrace ? 1u : 0u)
        << join::AlgorithmName(a);
  }
  EXPECT_EQ(w.bucket_memo.size(), 1u);
}

TEST_F(BucketMemoTest, SurvivesAMoveAndAResetWorkloadStartsEmpty) {
  mm::MmWorkload w = BuildShape(8, 0.0);
  uint32_t scans = 0;
  ASSERT_TRUE(Run(join::Algorithm::kGrace, w, {}, &scans).ok());
  EXPECT_EQ(scans, 1u);
  std::vector<mm::MmWorkload> moved;
  moved.push_back(std::move(w));
  ASSERT_TRUE(Run(join::Algorithm::kHybridHash, moved[0], {}, &scans).ok());
  EXPECT_EQ(scans, 0u);
  moved[0] = mm::MmWorkload{};
  EXPECT_EQ(moved[0].bucket_memo.size(), 0u);
}

TEST(BucketMemoUnitTest, KeepsTheNewestEntriesAndTheFirstInsertPerK) {
  rel::BucketMemo memo;
  const uint32_t n = rel::BucketMemo::kMaxEntries + 1;
  for (uint32_t k = 1; k <= n; ++k) {
    memo.Insert(k, std::make_shared<const rel::BucketHistogram>());
  }
  EXPECT_EQ(memo.size(), rel::BucketMemo::kMaxEntries);
  EXPECT_EQ(memo.Find(1), nullptr);
  const auto kept = memo.Find(n);
  ASSERT_NE(kept, nullptr);
  memo.Insert(n, std::make_shared<const rel::BucketHistogram>());
  EXPECT_EQ(memo.Find(n), kept);
  const rel::BucketMemo copy = memo;
  EXPECT_EQ(copy.Find(n), kept);
  EXPECT_EQ(copy.size(), memo.size());
}

// Four threads run the three bucketed drivers at once on one fresh
// workload, so the memo's first fill races; every join must match the
// serial join of the same shape.
TEST_F(BucketMemoTest, ConcurrentFirstJoinsMatchTheSerialJoins) {
  constexpr uint32_t kThreads = 4;
  mm::MmJoinOptions opt = SmallBudget();
  opt.max_threads = 2;
  const mm::MmWorkload serial_w = BuildShape(8, 1.1);
  std::vector<mm::MmJoinResult> serial;
  for (join::Algorithm a : kBucketed) {
    auto r = join::Driver(a).real(serial_w, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial.push_back(std::move(r).value());
  }

  const mm::MmWorkload w = BuildShape(8, 1.1);
  std::vector<std::vector<StatusOr<mm::MmJoinResult>>> got(kThreads);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t n = 0; n < std::size(kBucketed); ++n) {
        got[t].push_back(join::Driver(kBucketed[(t + n) % 3]).real(w, opt));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  uint32_t scans = 0;
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (uint32_t n = 0; n < std::size(kBucketed); ++n) {
      const uint32_t a = (t + n) % 3;
      SCOPED_TRACE(std::string(join::AlgorithmName(kBucketed[a])) +
                   " thread " + std::to_string(t));
      const StatusOr<mm::MmJoinResult>& r = got[t][n];
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified);
      EXPECT_EQ(r->output_count, serial[a].output_count);
      EXPECT_EQ(r->output_checksum, serial[a].output_checksum);
      EXPECT_EQ(r->run.k_buckets, serial[a].run.k_buckets);
      EXPECT_EQ(r->run.tsize, serial[a].run.tsize);
      scans += r->run.histogram_scans;
    }
  }
  EXPECT_GE(scans, 1u);
  EXPECT_LE(scans, kThreads);
  EXPECT_EQ(w.bucket_memo.size(), 1u);
}

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
