// Real memory-mapped parallel joins: the library running as an actual
// mmap(2) join engine on this machine — relations persisted in segments,
// one worker thread per partition, implicit I/O through the kernel, and
// wall-clock times. Contrast with examples/quickstart, which runs the same
// algorithms in the calibrated 1996 simulator.
//
// The parallel runs are traced and measured: the example writes a
// Chrome/Perfetto-loadable trace (real_mmap_join.trace.json — open in
// https://ui.perfetto.dev) and a metrics dump (real_mmap_join.metrics.json)
// with the same schema the simulated benches emit.
//
// Run:  ./build/examples/real_mmap_join [directory]
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "mmjoin/mmjoin.h"

int main(int argc, char** argv) {
  using namespace mmjoin;

  std::string dir = argc > 1
                        ? argv[1]
                        : "/tmp/mmjoin_real_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  mm::SegmentManager mgr(dir);

  rel::RelationConfig relation;
  relation.r_objects = relation.s_objects = 1 << 20;  // 1M x 128 B = 128 MB
  relation.num_partitions = 4;
  relation.zipf_theta = 0.2;

  std::printf("building %llu-object relations in %s ...\n",
              static_cast<unsigned long long>(relation.r_objects),
              dir.c_str());
  (void)mm::DeleteMmWorkload(&mgr, "demo", relation.num_partitions);
  auto workload = mm::BuildMmWorkload(&mgr, "demo", relation);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-14s %10s %10s %12s %10s\n", "algorithm", "mode",
              "wall_ms", "tuples", "verified");
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  for (auto a : {join::Algorithm::kNestedLoops, join::Algorithm::kSortMerge,
                 join::Algorithm::kGrace, join::Algorithm::kHybridHash}) {
    const join::DriverSpec& e = join::Driver(a);
    for (bool parallel : {false, true}) {
      mm::MmJoinOptions options;
      if (!parallel) options.max_threads = 1;
      if (parallel) options.trace = &trace;  // trace the parallel runs
      auto result = e.real(*workload, options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s: %s\n", e.name,
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf("%-14s %10s %10.1f %12llu %10s\n", e.name,
                  parallel ? "parallel" : "serial", result->wall_ms,
                  static_cast<unsigned long long>(result->output_count),
                  result->verified ? "yes" : "NO");
      if (parallel) result->ExportMetrics(&metrics);
    }
  }

  // Same artifacts the simulated benches produce: a Perfetto-loadable
  // trace and a metrics JSON, but from real threads and real wall time.
  if (auto st = trace.WriteFile("real_mmap_join.trace.json"); !st.ok()) {
    std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
  }
  if (auto st = metrics.WriteFile("real_mmap_join.metrics.json"); !st.ok()) {
    std::fprintf(stderr, "metrics: %s\n", st.ToString().c_str());
  }
  std::printf("\nwrote real_mmap_join.trace.json (load in ui.perfetto.dev)\n"
              "wrote real_mmap_join.metrics.json\n");

  // Clean up: drop the mappings, then delete the segment files.
  workload->r_segs.clear();
  workload->s_segs.clear();
  if (auto st = mm::DeleteMmWorkload(&mgr, "demo", relation.num_partitions);
      !st.ok()) {
    std::fprintf(stderr, "cleanup: %s\n", st.ToString().c_str());
    return 1;
  }
  if (argc <= 1) ::rmdir(dir.c_str());
  std::printf("\nsegments deleted; directory clean.\n");
  return 0;
}
