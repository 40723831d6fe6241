// Real-backend join bench: the unified drivers running on
// exec::RealBackend — worker threads over genuine mmap(2) segments, wall
// clock — with the same `<bench>.metrics.json` dump the simulated benches
// write (MmJoinResult::ExportMetrics feeds the shared bench registry).
//
//   ./build/bench/real_backend_join [objects] [partitions] [theta] [dir]
//
// Defaults: 262144 objects per relation (32 MiB each), 8 partitions,
// Zipf theta 1.1 for the skewed workload, a throwaway directory under
// /tmp. Tables:
//
//   1. serial vs parallel on a uniform and a Zipf-skewed workload, with
//      the parallel run's morsel/steal/idle telemetry. Both runs must
//      produce the identical verified count/checksum (asserted
//      unconditionally). One untimed warm-up join per driver runs first
//      on each workload, so no column pays the temporaries arena's first
//      fill,
//   2. paging policy (none / advise) with the join.kernel.* /
//      join.paging.* telemetry. Every policy must produce the identical
//      verified count/checksum (asserted unconditionally). Set
//      MMJOIN_PAGING_REPS=<n> to run each policy n times and keep the
//      best (scripts/bench_smoke.sh does, for its wall-clock tripwire),
//   3. mpsm vs sort-merge (EXT-9): whole-join wall-clock of the
//      massively-parallel sort-merge driver against the sort-merge
//      baseline. Identity (verified count + checksum) is asserted
//      unconditionally; the timing is reported, not gated, and
//   4. index-NL vs partitioning (see IndexTable below).
//
// The run header prints the host's NUMA topology (nodes, cpus per node,
// mempolicy) so every committed bench JSON records what shape its numbers
// were measured on.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/numa.h"
#include "exec/scheduler.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "util/cli.h"

namespace {

using namespace mmjoin;

constexpr char kUsage[] =
    "usage: real_backend_join [objects] [partitions] [theta] [dir]\n"
    "  objects     objects per relation            [262144]\n"
    "  partitions  partitions/disks                [8]\n"
    "  theta       Zipf skew of the second table   [1.1]\n"
    "  dir         segment directory               [/tmp/mmjoin_bench_*]\n"
    "Env knobs: MMJOIN_PAGING_REPS, MMJOIN_INDEX_REPS/ASSERT/ONLY\n"
    "(see the file header).\n";

// The four drivers the serial/parallel and paging tables compare.
const join::DriverSpec kEntries[] = {
    join::Driver(join::Algorithm::kNestedLoops),
    join::Driver(join::Algorithm::kSortMerge),
    join::Driver(join::Algorithm::kGrace),
    join::Driver(join::Algorithm::kHybridHash),
};

/// One untimed join per driver, so the temporaries arena's first fill
/// (fresh mappings, first-touch faults) lands on no table's column: the
/// serial/parallel and mpsm tables time one run per cell.
int WarmUp(const mm::MmWorkload& workload) {
  for (const join::DriverSpec& e : join::kDrivers) {
    auto r = e.real(workload, mm::MmJoinOptions{});
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up %s: %s\n", e.name,
                   r.status().ToString().c_str());
      return 1;
    }
  }
  return 0;
}

/// One worker against `workers` on the same workload, with the parallel
/// run's scheduler telemetry. The worker count must not change the join:
/// both runs must verify and match bit for bit.
int SerialVsParallel(const char* label, const mm::MmWorkload& workload,
                     uint32_t workers) {
  std::printf("# %s workload, serial vs %u workers\n", label, workers);
  std::printf("algorithm\tserial_ms\tparallel_ms\tspeedup\tfaults\t"
              "morsels\tsteals\tsteal_fail\tidle_ms\tsame_join\n");
  for (const join::DriverSpec& e : kEntries) {
    mm::MmJoinOptions serial;
    serial.max_threads = 1;
    auto ser = e.real(workload, serial);
    mm::MmJoinOptions parallel;
    parallel.max_threads = workers;
    auto par = e.real(workload, parallel);
    if (!ser.ok() || !par.ok()) {
      std::fprintf(stderr, "%s: %s\n", e.name,
                   (ser.ok() ? par : ser).status().ToString().c_str());
      return 1;
    }
    // Both runs land in the shared registry, same as RecordRun for the
    // simulated benches.
    ser->ExportMetrics(&bench::Metrics());
    par->ExportMetrics(&bench::Metrics());
    const bool same = ser->verified && par->verified &&
                      ser->output_count == par->output_count &&
                      ser->output_checksum == par->output_checksum;
    std::printf("%s\t%.2f\t%.2f\t%.2f\t%llu\t%llu\t%llu\t%llu\t%.2f\t%s\n",
                e.name, ser->wall_ms, par->wall_ms,
                par->wall_ms > 0 ? ser->wall_ms / par->wall_ms : 0.0,
                static_cast<unsigned long long>(par->run.faults),
                static_cast<unsigned long long>(par->run.sched_morsels),
                static_cast<unsigned long long>(par->run.sched_steals),
                static_cast<unsigned long long>(par->run.sched_steal_failures),
                par->run.sched_idle_ms, same ? "yes" : "NO");
    if (!same) {
      std::fprintf(stderr,
                   "%s %s: the worker count changed the join output — this "
                   "is a bug\n",
                   e.name, label);
      return 1;
    }
  }
  return 0;
}

constexpr exec::PagingMode kPagingModes[] = {exec::PagingMode::kNone,
                                             exec::PagingMode::kAdvise};

/// Best-of-`reps` wall clock for one algorithm x paging mode. Every rep's
/// result must verify; the returned result carries the best rep's timing.
StatusOr<mm::MmJoinResult> RunPaging(const join::DriverSpec& e,
                                     const mm::MmWorkload& workload,
                                     exec::PagingMode paging, int reps) {
  StatusOr<mm::MmJoinResult> best = Status::Internal("no rep ran");
  for (int rep = 0; rep < reps; ++rep) {
    mm::MmJoinOptions opt;
    opt.paging = paging;
    auto r = e.real(workload, opt);
    if (!r.ok()) return r;
    if (!best.ok() || r->wall_ms < best->wall_ms) best = std::move(r);
  }
  return best;
}

/// Prints one paging table: each policy's best wall clock, its speedup
/// over paging=none, and the kernel/advice telemetry.
int PagingTable(const char* label, const mm::MmWorkload& workload, int reps) {
  std::printf("# %s workload, paging policy (best of %d), "
              "speedup vs none\n",
              label, reps);
  std::printf("algorithm\tpaging\twall_ms\tspeedup\tbatches\trequests\t"
              "advise_calls\tadvise_mb\tfaults\tsame_join\n");
  for (const join::DriverSpec& e : kEntries) {
    double baseline_ms = 0;
    uint64_t base_count = 0, base_checksum = 0;
    for (exec::PagingMode paging : kPagingModes) {
      auto r = RunPaging(e, workload, paging, reps);
      if (!r.ok()) {
        std::fprintf(stderr, "%s %s: %s\n", e.name,
                     exec::PagingModeName(paging),
                     r.status().ToString().c_str());
        return 1;
      }
      r->ExportMetrics(&bench::Metrics());
      if (!r->paging_status.ok()) {
        std::fprintf(stderr, "%s %s: paging advice failed: %s\n", e.name,
                     exec::PagingModeName(paging),
                     r->paging_status.ToString().c_str());
      }
      if (paging == exec::PagingMode::kNone) {
        baseline_ms = r->wall_ms;
        base_count = r->output_count;
        base_checksum = r->output_checksum;
      }
      // The identity is unconditional: every policy must verify AND match
      // paging=none bit for bit.
      const bool same = r->verified && r->output_count == base_count &&
                        r->output_checksum == base_checksum;
      std::printf("%s\t%s\t%.2f\t%.2f\t%llu\t%llu\t%llu\t%.1f\t%llu\t%s\n",
                  e.name, exec::PagingModeName(paging), r->wall_ms,
                  r->wall_ms > 0 ? baseline_ms / r->wall_ms : 0.0,
                  static_cast<unsigned long long>(r->run.kernel_batches),
                  static_cast<unsigned long long>(r->run.kernel_requests),
                  static_cast<unsigned long long>(r->run.paging_advise_calls),
                  static_cast<double>(r->run.paging_advise_bytes) / 1e6,
                  static_cast<unsigned long long>(r->run.faults),
                  same ? "yes" : "NO");
      if (!same) {
        std::fprintf(stderr,
                     "%s %s: paging policy changed the join output — this "
                     "is a bug\n",
                     e.name, exec::PagingModeName(paging));
        return 1;
      }
    }
  }
  return 0;
}

/// MPSM vs sort-merge (EXT-9): whole-join wall-clock of one run each.
/// Identity is asserted unconditionally: mpsm is a different path to the
/// same join, so both must verify and match bit for bit.
int MpsmTable(const char* label, const mm::MmWorkload& workload) {
  std::printf("# %s workload, mpsm vs sort-merge\n", label);
  std::printf("algorithm\twall_ms\tspeedup\tfaults\tsame_join\n");
  auto sm = mm::MmSortMerge(workload, mm::MmJoinOptions{});
  auto mp = mm::MmMpsm(workload, mm::MmJoinOptions{});
  if (!sm.ok() || !mp.ok()) {
    std::fprintf(stderr, "mpsm table: %s\n",
                 (sm.ok() ? mp : sm).status().ToString().c_str());
    return 1;
  }
  sm->ExportMetrics(&bench::Metrics());
  mp->ExportMetrics(&bench::Metrics());
  const bool same = sm->verified && mp->verified &&
                    sm->output_count == mp->output_count &&
                    sm->output_checksum == mp->output_checksum;
  for (const mm::MmJoinResult* r : {&*sm, &*mp}) {
    std::printf("%s\t%.2f\t%.2f\t%llu\t%s\n",
                join::AlgorithmName(r->algorithm), r->wall_ms,
                r->wall_ms > 0 ? sm->wall_ms / r->wall_ms : 0.0,
                static_cast<unsigned long long>(r->run.faults),
                same ? "yes" : "NO");
  }
  if (!same) {
    std::fprintf(stderr,
                 "mpsm %s: mpsm and sort-merge disagree — this is a bug\n",
                 label);
    return 1;
  }
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Index-NL vs partitioning across |R|/|S| ratio and skew (EXT-8, NOCAP's
// "where does index probing beat partitioning" question). Each config
// persists the workload once (PersistMmWorkload runs index-NL's build
// stage and stores its sorted leaf arrays — the build-once half of the
// store's bargain) and then times four per-query paths: grace,
// hybrid-hash, cold index-NL (per-query index build) and the warm
// MmIndexProbe, index-NL's probe stage straight off the persisted leaf
// arrays (the query-many half). Identity across all four is asserted
// unconditionally: same verified count and checksum.
//
// MMJOIN_INDEX_REPS=<n> takes the best of n per cell;
// MMJOIN_INDEX_ASSERT=1 fails unless the warm probe beats the best
// partitioning driver on at least one selective configuration (|S| < |R|
// — most R references un-probed, the classic index-join sweet spot).
// Cold index-NL pays the same partition passes as grace PLUS the sort,
// so it is reported, not gated: the win the store buys is the amortized
// build.
int IndexTable(mm::SegmentManager* mgr, uint64_t objects,
               uint32_t partitions, int reps, bool* selective_win) {
  struct Cfg {
    uint64_t r, s;
    double theta;
  };
  const Cfg cfgs[] = {
      {objects, objects, 0.0},
      {objects, std::max<uint64_t>(objects / 8, 1024), 0.0},  // selective
      {std::max<uint64_t>(objects / 8, 1024), objects, 0.0},
      {objects, std::max<uint64_t>(objects / 8, 1024), 1.1},  // + skew
  };
  std::printf("# index-NL vs partitioning (best of %d; warm = persisted "
              "leaf-array probe)\n",
              reps);
  std::printf("r\ts\ttheta\tgrace_ms\thybrid_ms\tindexnl_ms\twarm_ms\t"
              "probes\tmatches\twarm_win\tsame_join\n");
  for (const Cfg& cfg : cfgs) {
    rel::RelationConfig rc;
    rc.r_objects = cfg.r;
    rc.s_objects = cfg.s;
    rc.num_partitions = partitions;
    rc.zipf_theta = cfg.theta;
    (void)mm::DeleteMmWorkload(mgr, "ix", partitions);
    auto workload = mm::BuildMmWorkload(mgr, "ix", rc);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    const auto now_ms = [] {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    double t0 = now_ms();
    const Status persisted =
        mm::PersistMmWorkload(mgr, "ix", &*workload, mm::MsyncPolicy::kNone);
    const double persist_serial_ms = now_ms() - t0;
    if (!persisted.ok()) {
      std::fprintf(stderr, "persist: %s\n", persisted.ToString().c_str());
      return 1;
    }
    // Persist again with a shared worker pool (the daemon's path): the
    // store drops and rebuilds _ix/_meta, so the second persist is a pure
    // build-time A/B of the index build on the pool against the backend's
    // own workers. The store is byte-identical either way; queries below
    // run against the pooled build.
    {
      exec::SharedWorkerPool pool(std::min<uint32_t>(partitions, 4));
      t0 = now_ms();
      const Status pooled = mm::PersistMmWorkload(
          mgr, "ix", &*workload, mm::MsyncPolicy::kNone, &pool);
      const double persist_pool_ms = now_ms() - t0;
      if (!pooled.ok()) {
        std::fprintf(stderr, "persist(pool): %s\n", pooled.ToString().c_str());
        return 1;
      }
      std::printf("# persist r=%llu s=%llu: serial=%.2fms pool=%.2fms "
                  "(%u workers) speedup=%.2fx\n",
                  static_cast<unsigned long long>(cfg.r),
                  static_cast<unsigned long long>(cfg.s), persist_serial_ms,
                  persist_pool_ms, pool.workers(),
                  persist_pool_ms > 0 ? persist_serial_ms / persist_pool_ms
                                      : 0.0);
      bench::Metrics()
          .counter("index.persist.serial_us")
          .Inc(static_cast<uint64_t>(persist_serial_ms * 1000));
      bench::Metrics()
          .counter("index.persist.pool_us")
          .Inc(static_cast<uint64_t>(persist_pool_ms * 1000));
    }
    auto best_of = [&](auto&& run_once) -> StatusOr<mm::MmJoinResult> {
      std::optional<mm::MmJoinResult> best;
      for (int rep = 0; rep < reps; ++rep) {
        auto r = run_once();
        if (!r.ok()) return r.status();
        if (!best || r->wall_ms < best->wall_ms) best = std::move(*r);
      }
      best->ExportMetrics(&bench::Metrics());
      return *best;
    };
    auto grace =
        best_of([&] { return mm::MmGrace(*workload, mm::MmJoinOptions{}); });
    auto hybrid = best_of(
        [&] { return mm::MmHybridHash(*workload, mm::MmJoinOptions{}); });
    auto cold = best_of([&] {
      return mm::MmIndexNestedLoops(*workload, mm::MmJoinOptions{});
    });
    auto warm = best_of([&] {
      return mm::MmIndexProbe(mgr, "ix", *workload, mm::MmJoinOptions{});
    });
    if (!grace.ok() || !hybrid.ok() || !cold.ok() || !warm.ok()) {
      std::fprintf(stderr, "index table: %s\n",
                   (!grace.ok()   ? grace.status()
                    : !hybrid.ok() ? hybrid.status()
                    : !cold.ok()   ? cold.status()
                                   : warm.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    const bool same =
        grace->verified && hybrid->verified && cold->verified &&
        warm->verified &&
        grace->output_count == warm->output_count &&
        grace->output_checksum == warm->output_checksum &&
        hybrid->output_count == warm->output_count &&
        cold->output_checksum == warm->output_checksum;
    const double best_part = std::min(grace->wall_ms, hybrid->wall_ms);
    const bool win = warm->wall_ms < best_part;
    if (win && cfg.s < cfg.r) *selective_win = true;
    std::printf("%llu\t%llu\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%llu\t%llu\t"
                "%s\t%s\n",
                static_cast<unsigned long long>(cfg.r),
                static_cast<unsigned long long>(cfg.s), cfg.theta,
                grace->wall_ms, hybrid->wall_ms, cold->wall_ms,
                warm->wall_ms,
                static_cast<unsigned long long>(warm->run.index_probes),
                static_cast<unsigned long long>(warm->run.index_matches),
                win ? "yes" : "no", same ? "yes" : "NO");
    workload->r_segs.clear();
    workload->s_segs.clear();
    (void)mm::DeleteMmWorkload(mgr, "ix", partitions);
    if (!same) {
      std::fprintf(stderr, "index table: drivers disagree at r=%llu s=%llu "
                   "theta=%.1f\n",
                   static_cast<unsigned long long>(cfg.r),
                   static_cast<unsigned long long>(cfg.s), cfg.theta);
      return 1;
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  // Positional-only tool: a flag-looking argument is a typo'd invocation
  // (e.g. "--objects=1000" silently strtoull'ing to 0), not data — reject
  // it hard so scripts fail loudly.
  for (int a = 1; a < argc; ++a) {
    if (cli::IsFlagLike(argv[a])) {
      cli::UnknownFlag("real_backend_join", argv[a], kUsage);
    }
  }
  if (argc > 5) cli::UnknownFlag("real_backend_join", argv[5], kUsage);
  rel::RelationConfig relation;
  relation.r_objects = relation.s_objects =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (1ull << 18);
  relation.num_partitions =
      argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 8;
  const double theta = argc > 3 ? std::strtod(argv[3], nullptr) : 1.1;
  // The parallel runs pin their worker count at min(D, 4), so stealing
  // engages even when the hardware reports fewer cores.
  const uint32_t workers = std::min<uint32_t>(relation.num_partitions, 4);

  std::string dir = argc > 4
                        ? argv[4]
                        : "/tmp/mmjoin_bench_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  mm::SegmentManager mgr(dir);

  // The topology line makes every committed bench JSON self-describing:
  // a number means little without knowing how many NUMA nodes the host
  // actually had.
  const exec::NumaTopology topo = exec::QueryNumaTopology();
  std::printf("# real-backend joins: |R|=|S|=%llu x %zu B, D=%u, "
              "zipf_theta=%.2f\n",
              static_cast<unsigned long long>(relation.r_objects),
              sizeof(rel::RObject), relation.num_partitions, theta);
  std::printf("# topology: %s\n", exec::NumaTopologySummary(topo).c_str());

  // Paging-table reps per policy (best-of).
  const char* reps_env = std::getenv("MMJOIN_PAGING_REPS");
  const int reps =
      reps_env ? std::max(1, static_cast<int>(std::strtol(reps_env, nullptr,
                                                          10)))
               : 1;

  // Index-table knobs (scripts/bench_index.sh): best-of reps, the
  // selective-win gate, and MMJOIN_INDEX_ONLY=1 to run just that table.
  const char* ix_reps_env = std::getenv("MMJOIN_INDEX_REPS");
  const int ix_reps =
      ix_reps_env
          ? std::max(1, static_cast<int>(std::strtol(ix_reps_env, nullptr,
                                                     10)))
          : 1;
  const char* ix_assert_env = std::getenv("MMJOIN_INDEX_ASSERT");
  const bool ix_assert = ix_assert_env && ix_assert_env[0] == '1';
  const char* ix_only_env = std::getenv("MMJOIN_INDEX_ONLY");
  const bool ix_only = ix_only_env && ix_only_env[0] == '1';
  bool ix_selective_win = false;

  if (ix_only) {
    int rc = IndexTable(&mgr, relation.r_objects, relation.num_partitions,
                        ix_reps, &ix_selective_win);
    if (rc == 0 && ix_assert && !ix_selective_win) {
      std::fprintf(stderr,
                   "index gate FAILED: warm probe never beat the best "
                   "partitioning driver on a selective config\n");
      rc = 1;
    } else if (rc == 0 && ix_assert) {
      std::printf("# index gate passed: warm probe beat partitioning on a "
                  "selective config\n");
    }
    bench::WriteMetricsJson("real_backend_join");
    if (argc <= 4) ::rmdir(dir.c_str());
    return rc;
  }

  int rc = 0;
  // Uniform workload: no skew to fix, so stealing has little to do.
  {
    (void)mm::DeleteMmWorkload(&mgr, "bench", relation.num_partitions);
    auto workload = mm::BuildMmWorkload(&mgr, "bench", relation);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    rc = WarmUp(*workload);
    if (rc == 0) rc = SerialVsParallel("uniform", *workload, workers);
    if (rc == 0) rc = PagingTable("uniform", *workload, reps);
    if (rc == 0) rc = MpsmTable("uniform", *workload);
    workload->r_segs.clear();
    workload->s_segs.clear();
    (void)mm::DeleteMmWorkload(&mgr, "bench", relation.num_partitions);
  }

  // Zipf-skewed workload: stealing over-splits the hot partitions and
  // redistributes them; the telemetry shows how much.
  if (rc == 0) {
    rel::RelationConfig skewed = relation;
    skewed.zipf_theta = theta;
    (void)mm::DeleteMmWorkload(&mgr, "zipf", skewed.num_partitions);
    auto workload = mm::BuildMmWorkload(&mgr, "zipf", skewed);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    rc = WarmUp(*workload);
    if (rc == 0) rc = SerialVsParallel("zipf", *workload, workers);
    if (rc == 0) rc = PagingTable("zipf", *workload, reps);
    if (rc == 0) rc = MpsmTable("zipf", *workload);
    workload->r_segs.clear();
    workload->s_segs.clear();
    (void)mm::DeleteMmWorkload(&mgr, "zipf", skewed.num_partitions);
  }

  if (rc == 0) {
    rc = IndexTable(&mgr, relation.r_objects, relation.num_partitions,
                    ix_reps, &ix_selective_win);
  }
  if (rc == 0 && ix_assert) {
    if (!ix_selective_win) {
      std::fprintf(stderr,
                   "index gate FAILED: warm probe never beat the best "
                   "partitioning driver on a selective config\n");
      rc = 1;
    } else {
      std::printf("# index gate passed: warm probe beat partitioning on a "
                  "selective config\n");
    }
  }

  bench::WriteMetricsJson("real_backend_join");
  if (argc <= 4) ::rmdir(dir.c_str());
  return rc;
}
