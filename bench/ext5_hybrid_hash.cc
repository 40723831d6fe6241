// EXT-5 (paper section 7: "Modelling of other more modern hash-based join
// algorithms will be done in future work"): pointer-based hybrid-hash vs
// Grace, model and experiment, across memory. The resident bucket saves
// I/O proportional to 1/K, so hybrid-hash's advantage grows with memory —
// the classic hybrid-hash result, transposed to the pointer-join setting.
#include "bench/bench_common.h"

int main() {
  using namespace mmjoin;
  const sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  const rel::RelationConfig rc;
  const double r_bytes =
      static_cast<double>(rc.r_objects) * sizeof(rel::RObject);
  const model::DttCurves dtt = model::MeasureDttCurves(mc.disk);

  std::printf("# Hybrid-hash vs Grace (EXT-5)\n");
  std::printf(
      "x\tgrace_s\thybrid_s\tsaving_pct\tgrace_model_s\thybrid_model_s\tK\n");
  for (double x : {0.02, 0.04, 0.08, 0.15, 0.3, 0.6, 1.2}) {
    join::JoinParams params;
    params.m_rproc_bytes = static_cast<uint64_t>(x * r_bytes);
    params.m_sproc_bytes = params.m_rproc_bytes;

    double t[2];
    uint32_t k_buckets = 0;
    int idx = 0;
    for (auto a : {join::Algorithm::kGrace, join::Algorithm::kHybridHash}) {
      sim::SimEnv env(mc);
      auto w = rel::BuildWorkload(&env, rc);
      if (!w.ok()) return 1;
      auto r = join::RunJoin(a, &env, *w, params);
      if (!r.ok() || !r->verified) {
        std::fprintf(stderr, "run failed at x=%.2f\n", x);
        return 1;
      }
      bench::RecordRun(*r);
      t[idx++] = r->elapsed_ms / 1000.0;
      k_buckets = r->k_buckets;
    }

    model::ModelInputs in;
    in.machine = mc;
    in.relation = rc;
    in.skew = 1.0;
    in.params = params;
    in.dtt = dtt;
    const double gm = model::PredictGrace(in).total_ms() / 1000.0;
    const double hm = model::PredictHybridHash(in).total_ms() / 1000.0;

    std::printf("%.2f\t%.2f\t%.2f\t%.1f\t%.2f\t%.2f\t%u\n", x, t[0], t[1],
                100.0 * (t[0] - t[1]) / t[0], gm, hm, k_buckets);
  }
  bench::WriteMetricsJson("ext5_hybrid_hash");
  return 0;
}
