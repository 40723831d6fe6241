// EXT-3 (paper section 9, "comparative analysis of various algorithms"):
// all three algorithms on a single memory axis. Reproduces the relative
// ordering implied by Fig. 5: Grace < sort-merge < nested loops, with
// nested loops closing the gap only when S fits in memory.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace mmjoin;
  const sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  const rel::RelationConfig rc;
  const double r_bytes =
      static_cast<double>(rc.r_objects) * sizeof(rel::RObject);

  std::printf("# Algorithm comparison at equal memory, paper workload\n");
  std::printf("x\tnested_loops_s\tsort_merge_s\tgrace_s\twinner\n");
  for (double x : {0.02, 0.05, 0.10, 0.20, 0.40, 0.70}) {
    join::JoinParams params;
    params.m_rproc_bytes = static_cast<uint64_t>(x * r_bytes);
    params.m_sproc_bytes = params.m_rproc_bytes;

    double times[3];
    int idx = 0;
    for (auto a : join::kPaperDrivers) {
      sim::SimEnv env(mc);
      auto w = rel::BuildWorkload(&env, rc);
      if (!w.ok()) return 1;
      auto r = join::RunJoin(a, &env, *w, params);
      if (!r.ok() || !r->verified) {
        std::fprintf(stderr, "run failed/unverified at x=%.2f\n", x);
        return 1;
      }
      bench::RecordRun(*r);
      times[idx++] = r->elapsed_ms / 1000.0;
    }
    int best = 0;
    for (int i = 1; i < 3; ++i) {
      if (times[i] < times[best]) best = i;
    }
    std::printf("%.2f\t%.2f\t%.2f\t%.2f\t%s\n", x, times[0], times[1],
                times[2], join::AlgorithmName(join::kPaperDrivers[best]));
  }
  bench::WriteMetricsJson("ext3_comparison");
  return 0;
}
