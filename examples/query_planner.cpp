// Query planner: the paper's stated purpose for the analytical model —
// "a quantitative model is an essential tool for subsystems such as a
// query optimizer" (section 1). For several memory budgets the planner
// evaluates the model for all three algorithms, picks the cheapest, and
// then actually executes all three to check whether the choice was right.
//
// Run:  ./build/examples/query_planner
#include <cstdio>

#include "mmjoin/mmjoin.h"

namespace {

using namespace mmjoin;

const char* Plan(const model::ModelInputs& inputs, double* predicted_s) {
  double best = 1e300;
  join::Algorithm winner = join::Algorithm::kNestedLoops;
  for (auto a : join::kPaperDrivers) {
    const double t = model::Predict(a, inputs).total_ms();
    if (t < best) {
      best = t;
      winner = a;
    }
  }
  *predicted_s = best / 1000.0;
  return join::AlgorithmName(winner);
}

}  // namespace

int main() {
  const sim::MachineConfig machine = sim::MachineConfig::SequentSymmetry1996();
  const model::DttCurves dtt = model::MeasureDttCurves(machine.disk);

  rel::RelationConfig relation;
  relation.r_objects = relation.s_objects = 51200;  // half paper scale

  std::printf("planning joins for |R| = |S| = %llu over D = %u disks\n\n",
              static_cast<unsigned long long>(relation.r_objects),
              relation.num_partitions);
  std::printf("%-8s %-14s %12s | %12s %12s %12s %-14s %5s\n", "mem_x",
              "planner_pick", "predicted_s", "nl_actual_s", "sm_actual_s",
              "gr_actual_s", "actual_best", "right");

  int correct = 0, total = 0;
  for (double x : {0.03, 0.08, 0.15, 0.30, 0.60}) {
    join::JoinParams params;
    params.m_rproc_bytes = static_cast<uint64_t>(
        x * relation.r_objects * sizeof(rel::RObject));
    params.m_sproc_bytes = params.m_rproc_bytes;

    model::ModelInputs inputs;
    inputs.machine = machine;
    inputs.relation = relation;
    inputs.skew = 1.0;
    inputs.params = params;
    inputs.dtt = dtt;

    double predicted_s = 0;
    const char* pick = Plan(inputs, &predicted_s);

    // Ground truth: run all three.
    double actual[3];
    int idx = 0;
    for (auto a : join::kPaperDrivers) {
      sim::SimEnv env(machine);
      auto w = rel::BuildWorkload(&env, relation);
      if (!w.ok()) return 1;
      auto r = join::RunJoin(a, &env, *w, params);
      if (!r.ok() || !r->verified) {
        std::fprintf(stderr, "execution failed at x=%.2f\n", x);
        return 1;
      }
      actual[idx++] = r->elapsed_ms / 1000.0;
    }
    int best = 0;
    for (int i = 1; i < 3; ++i) {
      if (actual[i] < actual[best]) best = i;
    }
    const char* best_name = join::AlgorithmName(join::kPaperDrivers[best]);
    const bool right = std::string(pick) == best_name;
    correct += right;
    ++total;
    std::printf("%-8.2f %-14s %12.2f | %12.2f %12.2f %12.2f %-14s %5s\n", x,
                pick, predicted_s, actual[0], actual[1], actual[2],
                best_name, right ? "yes" : "no");
  }
  std::printf("\nplanner picked the true winner in %d/%d configurations\n",
              correct, total);
  return 0;
}
