// EXT-4 (paper section 9, "changing the nature of the joining relations"):
// sensitivity of each algorithm to skew in the S-pointer distribution.
// Skewed pointers unbalance the RP_{i,j} sub-partitions, stressing the
// staggered-phase contention-avoidance and the synchronized algorithms'
// per-phase barriers.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace mmjoin;
  const sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();

  std::printf("# Skew sensitivity, |R| = |S| = 102400, memory = 0.05\n");
  std::printf("zipf_theta\tskew\tnested_loops_s\tsort_merge_s\tgrace_s\n");
  for (double theta : {0.0, 0.3, 0.6, 0.9}) {
    rel::RelationConfig rc;
    rc.zipf_theta = theta;

    join::JoinParams params;
    params.m_rproc_bytes = static_cast<uint64_t>(
        0.05 * rc.r_objects * sizeof(rel::RObject));
    params.m_sproc_bytes = params.m_rproc_bytes;

    double times[3];
    double skew = 0;
    int idx = 0;
    for (auto a : join::kPaperDrivers) {
      sim::SimEnv env(mc);
      auto w = rel::BuildWorkload(&env, rc);
      if (!w.ok()) return 1;
      skew = w->skew;
      auto r = join::RunJoin(a, &env, *w, params);
      if (!r.ok() || !r->verified) {
        std::fprintf(stderr, "run failed/unverified at theta=%.1f\n", theta);
        return 1;
      }
      bench::RecordRun(*r);
      times[idx++] = r->elapsed_ms / 1000.0;
    }
    std::printf("%.1f\t%.3f\t%.2f\t%.2f\t%.2f\n", theta, skew, times[0],
                times[1], times[2]);
  }
  bench::WriteMetricsJson("ext4_skew");
  return 0;
}
