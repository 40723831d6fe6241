// EXT-2 (paper section 9, "scaleup experiments"): elapsed time versus D
// with the relation size growing proportionally (|R| = |S| = 25600 * D).
// Ideal scaleup keeps the time flat; deviations expose the D-1 phase
// structure and the serialized mapping setup.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace mmjoin;
  std::printf("# Scaleup: |R| = |S| = 25600 * D, memory fixed per process\n");
  std::printf("D\tR_objects\tnested_loops_s\tsort_merge_s\tgrace_s\n");

  for (uint32_t d : {1u, 2u, 4u, 8u}) {
    sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
    mc.num_disks = d;

    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = 25600ull * d;
    rc.num_partitions = d;

    join::JoinParams params;
    // Per-process memory tracks the per-partition share (constant here).
    params.m_rproc_bytes = static_cast<uint64_t>(
        0.05 * 25600 * sizeof(rel::RObject) * 4);
    params.m_sproc_bytes = params.m_rproc_bytes;

    double times[3];
    int idx = 0;
    for (auto a : join::kPaperDrivers) {
      sim::SimEnv env(mc);
      auto w = rel::BuildWorkload(&env, rc);
      if (!w.ok()) return 1;
      auto r = join::RunJoin(a, &env, *w, params);
      if (!r.ok() || !r->verified) {
        std::fprintf(stderr, "run failed/unverified\n");
        return 1;
      }
      bench::RecordRun(*r);
      times[idx++] = r->elapsed_ms / 1000.0;
    }
    std::printf("%u\t%llu\t%.2f\t%.2f\t%.2f\n", d,
                static_cast<unsigned long long>(rc.r_objects), times[0],
                times[1], times[2]);
  }
  bench::WriteMetricsJson("ext2_scaleup");
  return 0;
}
