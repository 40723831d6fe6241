// queries: the TPC-H-flavoured plan bench over the push-based operator
// layer (exec/op/) on the real mmap backend.
//
// For every built-in plan (q1/q4/q6 — exec::op::kPlanNames) it runs
// `reps` repetitions with the default backend knobs (every worker,
// madvise paging), keeping the best wall time, then re-runs the plan on
// one worker and asserts the FULL result — row counts, every group, the
// checksum — is bit-identical (PlanResultsMatch).
// Every run is additionally oracle-checked inside MmRunPlan against the
// serial reference evaluator; any unverified or divergent run exits 1.
//
//   queries [objects] [partitions] [theta] [reps] [dir]
//
// Defaults: 131072 objects per relation side, D=8, Zipf theta 1.1 (the
// probe plans hit a genuinely skewed S), best-of-3. Output: a TSV row per
// plan plus `queries.metrics.json` (bench_common shape) whose
// `plan.elapsed_ms` histogram min is the statistic
// scripts/bench_queries.sh diffs against the committed
// BENCH_queries.json (tools/metrics_validate --hist plan.elapsed_ms).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"

namespace {

using namespace mmjoin;

constexpr char kUsage[] =
    "usage: queries [objects] [partitions] [theta] [reps] [dir]\n"
    "  objects     objects per relation side      [131072]\n"
    "  partitions  partitions/disks               [8]\n"
    "  theta       Zipf skew of the S pointers    [1.1]\n"
    "  reps        repetitions per plan (best-of) [3]\n"
    "  dir         segment directory              [/tmp/mmjoin_queries_*]\n";

int RunPlans(const mm::MmWorkload& workload, int reps) {
  std::printf(
      "plan\tscanned\tfiltered\tjoined\trows\tgroups\tchecksum\t"
      "best_ms\tmean_ms\tthreads\tsame_plan\tverified\n");
  int rc = 0;
  for (const char* name : exec::op::kPlanNames) {
    const exec::op::PlanSpec* spec = exec::op::FindPlan(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "queries: unknown built-in plan %s\n", name);
      return 1;
    }

    mm::MmPlanResult best;
    double sum_ms = 0;
    bool verified = true;
    for (int r = 0; r < reps; ++r) {
      auto result = mm::MmRunPlan(workload, *spec, mm::MmJoinOptions{});
      if (!result.ok()) {
        std::fprintf(stderr, "queries: %s: %s\n", name,
                     result.status().ToString().c_str());
        return 1;
      }
      result->ExportMetrics(&bench::Metrics());
      verified = verified && result->verified;
      sum_ms += result->plan.elapsed_ms;
      if (r == 0 || result->plan.elapsed_ms < best.plan.elapsed_ms) {
        best = *result;
      }
    }

    // One worker must reproduce the default run bit-for-bit: same rows,
    // same groups, same checksum — the operator layer's determinism
    // contract across worker counts.
    mm::MmJoinOptions serial_options;
    serial_options.max_threads = 1;
    auto variant = mm::MmRunPlan(workload, *spec, serial_options);
    if (!variant.ok()) {
      std::fprintf(stderr, "queries: %s variant: %s\n", name,
                   variant.status().ToString().c_str());
      return 1;
    }
    verified = verified && variant->verified;
    const bool same_plan = exec::op::PlanResultsMatch(best.plan, variant->plan);

    std::printf("%s\t%llu\t%llu\t%llu\t%llu\t%zu\t0x%016llx\t%.2f\t%.2f\t"
                "%u\t%s\t%s\n",
                name,
                static_cast<unsigned long long>(best.plan.rows_scanned),
                static_cast<unsigned long long>(best.plan.rows_filtered),
                static_cast<unsigned long long>(best.plan.rows_joined),
                static_cast<unsigned long long>(best.plan.output_rows),
                best.plan.groups.size(),
                static_cast<unsigned long long>(best.plan.checksum),
                best.plan.elapsed_ms, sum_ms / reps, best.plan.threads_used,
                same_plan ? "yes" : "NO", verified ? "yes" : "NO");
    if (!same_plan || !verified) rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--help") {
    std::fputs(kUsage, stderr);
    return 2;
  }
  rel::RelationConfig relation;
  relation.r_objects = relation.s_objects =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 131072;
  relation.num_partitions =
      argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 8;
  relation.zipf_theta = argc > 3 ? std::strtod(argv[3], nullptr) : 1.1;
  const int reps =
      argc > 4 ? std::max(1, static_cast<int>(std::strtol(argv[4], nullptr,
                                                          10)))
               : 3;
  std::string dir = argc > 5
                        ? argv[5]
                        : "/tmp/mmjoin_queries_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  mm::SegmentManager mgr(dir);

  std::printf("# plan bench: |R|=|S|=%llu x %zu B, D=%u, zipf_theta=%.2f, "
              "best-of-%d\n",
              static_cast<unsigned long long>(relation.r_objects),
              sizeof(rel::RObject), relation.num_partitions,
              relation.zipf_theta, reps);

  (void)mm::DeleteMmWorkload(&mgr, "queries", relation.num_partitions);
  auto workload = mm::BuildMmWorkload(&mgr, "queries", relation);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  const int rc = RunPlans(*workload, reps);

  workload->r_segs.clear();
  workload->s_segs.clear();
  (void)mm::DeleteMmWorkload(&mgr, "queries", relation.num_partitions);
  bench::WriteMetricsJson("queries");
  if (argc <= 5) ::rmdir(dir.c_str());
  return rc;
}
