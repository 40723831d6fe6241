// EXT-1 (paper section 9, "speedup experiments"): elapsed time versus the
// number of disks/process pairs D at a fixed total relation size. Ideal
// speedup halves the time each time D doubles; sub-linearity comes from
// the growing number of pass-1 phases and the per-D setup serialization.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace mmjoin;
  std::printf("# Speedup: fixed |R| = |S| = 102400, memory fixed at 0.05\n");
  std::printf("D\tnested_loops_s\tsort_merge_s\tgrace_s\tall_verified\n");

  for (uint32_t d : {1u, 2u, 4u, 8u}) {
    sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
    mc.num_disks = d;

    rel::RelationConfig rc;
    rc.num_partitions = d;

    join::JoinParams params;
    params.m_rproc_bytes = static_cast<uint64_t>(
        0.05 * rc.r_objects * sizeof(rel::RObject));
    params.m_sproc_bytes = params.m_rproc_bytes;

    double times[3] = {0, 0, 0};
    bool verified = true;
    int idx = 0;
    for (auto a : join::kPaperDrivers) {
      sim::SimEnv env(mc);
      auto w = rel::BuildWorkload(&env, rc);
      if (!w.ok()) return 1;
      auto r = join::RunJoin(a, &env, *w, params);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
      bench::RecordRun(*r);
      times[idx++] = r->elapsed_ms / 1000.0;
      verified = verified && r->verified;
    }
    std::printf("%u\t%.2f\t%.2f\t%.2f\t%s\n", d, times[0], times[1],
                times[2], verified ? "yes" : "NO");
  }
  bench::WriteMetricsJson("ext1_speedup");
  return 0;
}
