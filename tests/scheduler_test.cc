// The morsel-driven work-stealing scheduler (exec/scheduler.h):
//
//   * BuildChains is pure and deterministic: exact coverage of every
//     partition, in-order morsels, empty partitions still get an epilogue
//     morsel, hot partitions are over-split, independent mode emits
//     single-morsel chains.
//   * The pool runs every morsel exactly once, keeps chained morsels in
//     order, and actually steals under forced contention.
//   * The shared pool does the same for concurrent chain sets, and shares
//     one worker between priorities in their PriorityWeight ratio.
//   * End to end, output count/checksum are bit-identical across worker
//     counts and morsel sizes — the paper's join results cannot depend on
//     how the work was dealt — and the real stealing run still matches the
//     deterministic simulator on a skewed workload.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/scheduler.h"
#include "join/join_common.h"
#include "join/nested_loops.h"
#include "join/grace.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "rel/generator.h"
#include "scratch_dir.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

using exec::BuildChains;
using exec::kAnyNode;
using exec::Morsel;
using exec::ParallelFor;
using exec::MorselChain;
using exec::SchedulerOptions;
using exec::WorkerRunStats;
using exec::WorkStealingScheduler;

SchedulerOptions Opts(uint32_t workers, uint64_t morsel_tuples) {
  SchedulerOptions so;
  so.workers = workers;
  so.morsel_tuples = morsel_tuples;
  return so;
}

// ---------------------------------------------------------------------------
// BuildChains
// ---------------------------------------------------------------------------

TEST(BuildChainsTest, ChainedCoversEveryPartitionInOrder) {
  const std::vector<uint64_t> counts = {10, 5, 0};
  const auto chains = BuildChains(counts, Opts(2, 4), /*independent=*/false);

  ASSERT_EQ(chains.size(), 3u);  // one chain per partition
  for (uint32_t i = 0; i < 3; ++i) {
    const MorselChain& c = chains[i];
    EXPECT_EQ(c.partition, i);
    EXPECT_GE(c.cost, 1u);
    ASSERT_FALSE(c.morsels.empty());
    // In-order, contiguous, exact coverage of [0, counts[i]).
    uint64_t expect_begin = 0;
    for (const Morsel& m : c.morsels) {
      EXPECT_EQ(m.partition, i);
      EXPECT_EQ(m.begin, expect_begin);
      EXPECT_LE(m.end - m.begin, 4u);
      expect_begin = m.end;
    }
    EXPECT_EQ(expect_begin, counts[i]);
  }
  EXPECT_EQ(chains[0].morsels.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(chains[1].morsels.size(), 2u);  // 4 + 1
  // A zero-count partition still gets one empty morsel so epilogues run.
  ASSERT_EQ(chains[2].morsels.size(), 1u);
  EXPECT_EQ(chains[2].morsels[0].begin, 0u);
  EXPECT_EQ(chains[2].morsels[0].end, 0u);
}

TEST(BuildChainsTest, IndependentEmitsSingleMorselChains) {
  const std::vector<uint64_t> counts = {10, 0};
  const auto chains = BuildChains(counts, Opts(2, 4), /*independent=*/true);

  // Partition 0 decomposes into 3 chains; partition 1 keeps its epilogue.
  ASSERT_EQ(chains.size(), 4u);
  uint64_t covered = 0;
  for (const MorselChain& c : chains) {
    ASSERT_EQ(c.morsels.size(), 1u);
    EXPECT_EQ(c.cost, std::max<uint64_t>(1, c.morsels[0].end -
                                                c.morsels[0].begin));
    if (c.partition == 0) covered += c.morsels[0].end - c.morsels[0].begin;
  }
  EXPECT_EQ(covered, 10u);
}

TEST(BuildChainsTest, HotPartitionIsOverSplit) {
  // Partition 0 holds almost everything: 8000 > 4 * mean(8700/8), so its
  // morsel size shrinks to ceil(8000 / (workers * factor)) = 500 even
  // though the base morsel would swallow it whole.
  std::vector<uint64_t> counts = {8000, 100, 100, 100, 100, 100, 100, 100};
  const auto chains =
      BuildChains(counts, Opts(4, /*morsel_tuples=*/1 << 20),
                  /*independent=*/false);
  ASSERT_EQ(chains.size(), 8u);
  EXPECT_EQ(chains[0].morsels.size(), 16u);  // 8000 / 500
  for (uint32_t i = 1; i < 8; ++i) {
    EXPECT_EQ(chains[i].morsels.size(), 1u);  // cold: one base-size morsel
  }
}

TEST(BuildChainsTest, DeterministicForSameInputs) {
  const std::vector<uint64_t> counts = {977, 11, 4096, 0, 313};
  const auto a = BuildChains(counts, Opts(8, 128), true);
  const auto b = BuildChains(counts, Opts(8, 128), true);
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].partition, b[k].partition);
    EXPECT_EQ(a[k].cost, b[k].cost);
    ASSERT_EQ(a[k].morsels.size(), b[k].morsels.size());
    for (size_t m = 0; m < a[k].morsels.size(); ++m) {
      EXPECT_EQ(a[k].morsels[m].begin, b[k].morsels[m].begin);
      EXPECT_EQ(a[k].morsels[m].end, b[k].morsels[m].end);
    }
  }
}

TEST(ParallelForTest, RunsEveryUnitExactlyOnce) {
  // Zero units, fewer units than workers, more units than workers, and
  // the caller-only case: every unit runs once, no thread count leaks.
  for (const auto& [units, workers] :
       std::vector<std::pair<uint32_t, uint32_t>>{
           {0, 4}, {1, 4}, {3, 8}, {64, 4}, {17, 1}, {5, 0}}) {
    std::vector<std::atomic<uint32_t>> runs(units);
    std::mutex mu;
    std::set<std::thread::id> threads;
    ParallelFor(units, workers, [&](uint32_t u) {
      runs[u].fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    });
    for (uint32_t u = 0; u < units; ++u) {
      EXPECT_EQ(runs[u].load(), 1u) << units << " units, unit " << u;
    }
    EXPECT_LE(threads.size(), std::max(1u, std::min(units, workers)));
  }
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

TEST(WorkStealingSchedulerTest, RunsEveryMorselExactlyOnce) {
  const std::vector<uint64_t> counts = {1000, 1, 0, 512, 7, 7, 7, 2048};
  auto chains = BuildChains(counts, Opts(4, 64), /*independent=*/false);

  std::mutex mu;
  std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> seen;
  WorkStealingScheduler sched(Opts(4, 64), [] { return 0.0; });
  sched.Run(std::move(chains), [&](uint32_t, const Morsel& m) {
    std::lock_guard<std::mutex> lock(mu);
    seen[m.partition].push_back({m.begin, m.end});
  });

  for (uint32_t i = 0; i < counts.size(); ++i) {
    const auto& ranges = seen[i];
    ASSERT_FALSE(ranges.empty()) << "partition " << i;
    // Chained morsels arrive in order (single owner at a time), so the
    // recorded ranges must tile [0, counts[i]) left to right with no
    // duplicate and no gap.
    uint64_t expect_begin = 0;
    for (const auto& [b, e] : ranges) {
      EXPECT_EQ(b, expect_begin) << "partition " << i;
      expect_begin = e;
    }
    EXPECT_EQ(expect_begin, counts[i]) << "partition " << i;
  }

  uint64_t morsels = 0, chains_run = 0;
  for (const auto& st : sched.worker_stats()) {
    morsels += st.morsels;
    chains_run += st.chains;
  }
  uint64_t expected_morsels = 0;
  for (const auto& [i, ranges] : seen) expected_morsels += ranges.size();
  EXPECT_EQ(morsels, expected_morsels);
  EXPECT_EQ(chains_run, counts.size());
}

TEST(WorkStealingSchedulerTest, StealsUnderForcedContention) {
  // Two workers. LPT seeding deals the two big chains to different deques
  // and alternates the eight small ones between them. The big chain on
  // worker 0 (partition 0) blocks until every small chain has run — which
  // can only happen if worker 1, after draining its own deque, STEALS the
  // small chains still parked behind the blocked chain on worker 0's deque.
  constexpr uint32_t kSmall = 8;
  std::atomic<uint32_t> smalls_done{0};

  std::vector<MorselChain> chains;
  chains.push_back(MorselChain{0, 100, kAnyNode, {Morsel{0, 0, 1}}});  // blocker
  chains.push_back(MorselChain{1, 100, kAnyNode, {Morsel{1, 0, 1}}});
  for (uint32_t p = 2; p < 2 + kSmall; ++p) {
    chains.push_back(MorselChain{p, 1, kAnyNode, {Morsel{p, 0, 1}}});
  }

  WorkStealingScheduler sched(Opts(2, 64), [] { return 0.0; });
  sched.Run(std::move(chains), [&](uint32_t, const Morsel& m) {
    if (m.partition == 0) {
      while (smalls_done.load(std::memory_order_acquire) < kSmall) {
        std::this_thread::yield();
      }
    } else if (m.partition >= 2) {
      smalls_done.fetch_add(1, std::memory_order_release);
    }
  });

  const auto& stats = sched.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  uint64_t steals = 0, morsels = 0;
  for (const auto& st : stats) {
    steals += st.steals;
    morsels += st.morsels;
  }
  EXPECT_EQ(morsels, 2u + kSmall);  // everything ran exactly once
  EXPECT_GE(steals, 1u);            // and at least one take was a steal
}

TEST(WorkStealingSchedulerTest, SingleWorkerRunsInlineLargestFirst) {
  std::vector<MorselChain> chains;
  chains.push_back(MorselChain{0, 1, kAnyNode, {Morsel{0, 0, 1}}});
  chains.push_back(MorselChain{1, 50, kAnyNode, {Morsel{1, 0, 50}}});
  chains.push_back(MorselChain{2, 7, kAnyNode, {Morsel{2, 0, 7}}});

  std::vector<uint32_t> order;
  WorkStealingScheduler sched(Opts(1, 64), [] { return 0.0; });
  sched.Run(std::move(chains), [&](uint32_t w, const Morsel& m) {
    EXPECT_EQ(w, 0u);
    order.push_back(m.partition);
  });
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 2, 0}));
  EXPECT_EQ(sched.worker_stats()[0].steals, 0u);
}

// ---------------------------------------------------------------------------
// The shared worker pool
// ---------------------------------------------------------------------------

TEST(SharedWorkerPoolTest, ConcurrentSetsRunEveryMorselOnceInChainOrder) {
  // Two chain sets submitted at once to three workers. The pool re-queues
  // a chain after every morsel, so a chain's morsels may run on different
  // workers; they must still run one at a time, in order, exactly once.
  const std::vector<uint64_t> counts = {40, 7, 0, 25, 13};
  constexpr int kSets = 2;
  exec::SharedWorkerPool pool(3);

  std::mutex mu;
  std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> seen[kSets];
  std::atomic<int> running[kSets][5] = {};
  std::atomic<int> overlaps{0};
  std::vector<WorkerRunStats> stats[kSets];
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSets; ++s) {
    submitters.emplace_back([&, s] {
      pool.RunChainSet(
          BuildChains(counts, Opts(3, 4), /*independent=*/false),
          [&, s](uint32_t, const Morsel& m) {
            if (running[s][m.partition].fetch_add(1) != 0) ++overlaps;
            {
              std::lock_guard<std::mutex> lock(mu);
              seen[s][m.partition].push_back({m.begin, m.end});
            }
            std::this_thread::yield();
            running[s][m.partition].fetch_sub(1);
          },
          nullptr,
          s == 0 ? exec::QueryPriority::kNormal : exec::QueryPriority::kLow,
          &stats[s]);
    });
  }
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(pool.active_sets(), 0u);
  EXPECT_EQ(pool.total_sets(), static_cast<uint64_t>(kSets));
  for (int s = 0; s < kSets; ++s) {
    uint64_t expected_morsels = 0;
    for (uint32_t i = 0; i < counts.size(); ++i) {
      const auto& ranges = seen[s][i];
      ASSERT_FALSE(ranges.empty()) << "set " << s << " partition " << i;
      // In order, no duplicate, no gap: the ranges tile [0, counts[i]).
      uint64_t expect_begin = 0;
      for (const auto& [b, e] : ranges) {
        EXPECT_EQ(b, expect_begin) << "set " << s << " partition " << i;
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, counts[i]) << "set " << s << " partition " << i;
      expected_morsels += ranges.size();
    }
    ASSERT_EQ(stats[s].size(), 3u);
    uint64_t morsels = 0, chains_run = 0;
    for (const WorkerRunStats& st : stats[s]) {
      morsels += st.morsels;
      chains_run += st.chains;
    }
    EXPECT_EQ(morsels, expected_morsels) << "set " << s;
    EXPECT_EQ(chains_run, counts.size()) << "set " << s;
  }
}

TEST(SharedWorkerPoolTest, OneWorkerAlternatesPrioritiesByWeight) {
  // One worker, a kHigh and a kLow set both runnable: weighted round robin
  // gives the high set PriorityWeight(kHigh) = 4 picks for every
  // PriorityWeight(kLow) = 1 of the low set. The high set's first morsel
  // holds the worker until the low set is active, so every later pick is
  // made with both sets runnable.
  ASSERT_EQ(exec::PriorityWeight(exec::QueryPriority::kHigh), 4u);
  ASSERT_EQ(exec::PriorityWeight(exec::QueryPriority::kLow), 1u);
  exec::SharedWorkerPool pool(1);
  std::mutex mu;
  std::string picks;
  std::atomic<bool> high_started{false};
  std::atomic<bool> low_seen{true};

  std::thread high([&] {
    pool.RunChainSet(
        BuildChains({12}, Opts(1, 1), /*independent=*/true),
        [&](uint32_t, const Morsel&) {
          if (!high_started.exchange(true)) {
            int waited_ms = 0;
            while (pool.active_sets() < 2 && waited_ms < 10000) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              ++waited_ms;
            }
            low_seen = pool.active_sets() == 2;
          }
          std::lock_guard<std::mutex> lock(mu);
          picks += 'H';
        },
        nullptr, exec::QueryPriority::kHigh, nullptr);
  });
  while (!high_started.load()) std::this_thread::yield();
  pool.RunChainSet(
      BuildChains({6}, Opts(1, 1), /*independent=*/true),
      [&](uint32_t, const Morsel&) {
        std::lock_guard<std::mutex> lock(mu);
        picks += 'L';
      },
      nullptr, exec::QueryPriority::kLow, nullptr);
  high.join();

  ASSERT_TRUE(low_seen.load()) << "the low set never became active";
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(picks, "HHHHL" "HHHHL" "HHHHL" "LLL");
}

// ---------------------------------------------------------------------------
// End to end: determinism across schedules and worker counts
// ---------------------------------------------------------------------------

class SchedulerJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  static rel::RelationConfig Skewed(uint64_t n, uint32_t d) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = n;
    rc.num_partitions = d;
    rc.zipf_theta = 0.9;  // Zipf-skewed S-pointer targets
    rc.seed = 20260806;
    return rc;
  }

  ScratchDir scratch_{"sched"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

// A morsel larger than any partition: every partition that is not hot
// runs as one [0, n) range, the shape of a per-partition loop.
constexpr uint64_t kWholePartition = uint64_t{1} << 40;

TEST_F(SchedulerJoinTest, IdenticalJoinAcrossWorkersAndMorselSizes) {
  // D = 8 partitions, skewed; tiny morsels so stealing actually decomposes
  // the passes. Every (workers, morsel) combination must produce the
  // same verified count and checksum — bit-determinism is the contract.
  const rel::RelationConfig rc = Skewed(16384, 8);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "det", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  struct Config {
    uint32_t workers;
    uint64_t morsel_tuples;
  };
  const Config configs[] = {
      {1, 256}, {2, 256}, {8, 256}, {1, kWholePartition}, {8, kWholePartition},
  };

  uint64_t count = 0, checksum = 0;
  bool first = true;
  for (const Config& cfg : configs) {
    SCOPED_TRACE(testing::Message() << "x" << cfg.workers << " morsel="
                                    << cfg.morsel_tuples);
    mm::MmJoinOptions options;
    options.max_threads = cfg.workers;
    options.morsel_tuples = cfg.morsel_tuples;
    auto result = mm::MmNestedLoops(*workload, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->verified);
    if (first) {
      count = result->output_count;
      checksum = result->output_checksum;
      first = false;
    } else {
      EXPECT_EQ(result->output_count, count);
      EXPECT_EQ(result->output_checksum, checksum);
    }
    // One worker runs the chains inline: morsels, but nothing to steal.
    EXPECT_GT(result->run.sched_morsels, 0u);
    if (cfg.workers == 1) {
      EXPECT_EQ(result->run.sched_steals, 0u);
    }
  }
}

TEST_F(SchedulerJoinTest, GraceIdenticalAcrossMorselSizes) {
  const rel::RelationConfig rc = Skewed(8192, 8);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "grace", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  mm::MmJoinOptions whole;
  whole.max_threads = 4;
  whole.morsel_tuples = kWholePartition;
  auto a = mm::MmGrace(*workload, whole);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  mm::MmJoinOptions small;
  small.max_threads = 4;
  small.morsel_tuples = 128;
  auto b = mm::MmGrace(*workload, small);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_TRUE(a->verified && b->verified);
  EXPECT_EQ(a->output_count, b->output_count);
  EXPECT_EQ(a->output_checksum, b->output_checksum);
}

TEST_F(SchedulerJoinTest, SkewedStealingRunMatchesSimulator) {
  // The stealing real run must still reproduce the deterministic costed
  // simulator's join on a skewed D = 8 workload, with morsels small
  // enough that hot partitions spread across workers.
  const rel::RelationConfig rc = Skewed(12000, 8);

  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  sim::SimEnv env(mc);
  auto sim_workload = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(sim_workload.ok()) << sim_workload.status().ToString();
  auto sim_result =
      join::RunNestedLoops(&env, *sim_workload, join::JoinParams{});
  ASSERT_TRUE(sim_result.ok()) << sim_result.status().ToString();

  auto workload = mm::BuildMmWorkload(mgr_.get(), "xval", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  mm::MmJoinOptions options;
  options.max_threads = 4;
  options.morsel_tuples = 512;
  auto real_result = mm::MmNestedLoops(*workload, options);
  ASSERT_TRUE(real_result.ok()) << real_result.status().ToString();

  EXPECT_TRUE(sim_result->verified && real_result->verified);
  EXPECT_EQ(sim_result->output_count, real_result->output_count);
  EXPECT_EQ(sim_result->output_checksum, real_result->output_checksum);
}

}  // namespace
}  // namespace mmjoin
