// Quickstart: generate the paper's validation workload, run all three
// parallel pointer-based join algorithms, verify their output against the
// reference join, and compare each measured time with the analytical
// model's prediction.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "mmjoin/mmjoin.h"

int main() {
  using namespace mmjoin;

  // 1. The machine: D = 4 disks, 4 KiB pages, Fujitsu-class drives.
  const sim::MachineConfig machine = sim::MachineConfig::SequentSymmetry1996();
  sim::SimEnv env(machine);

  // 2. The relations: |R| = |S| = 102400 objects of 128 bytes, partitioned
  //    across the 4 disks; R's join attribute is a virtual pointer into S.
  rel::RelationConfig relation;  // paper defaults
  auto workload = rel::BuildWorkload(&env, relation);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  std::printf("R: %llu objects, S: %llu objects, D = %u, skew = %.3f\n",
              static_cast<unsigned long long>(relation.r_objects),
              static_cast<unsigned long long>(relation.s_objects),
              relation.num_partitions, workload->skew);

  // 3. Memory: give each Rproc/Sproc 10% of |R|*r.
  join::JoinParams params;
  params.m_rproc_bytes = static_cast<uint64_t>(
      0.10 * relation.r_objects * sizeof(rel::RObject));
  params.m_sproc_bytes = params.m_rproc_bytes;

  // 4. The model needs the measured dttr/dttw curves of the drives.
  model::ModelInputs inputs;
  inputs.machine = machine;
  inputs.relation = relation;
  inputs.skew = workload->skew;
  inputs.params = params;
  inputs.dtt = model::MeasureDttCurves(machine.disk);

  std::printf("\n%-14s %14s %14s %10s %9s\n", "algorithm", "experiment(s)",
              "model(s)", "verified", "faults");
  for (join::Algorithm a : join::kPaperDrivers) {
    // Fresh environment per run so no cache state leaks between algorithms.
    sim::SimEnv run_env(machine);
    auto w = rel::BuildWorkload(&run_env, relation);
    if (!w.ok()) return 1;
    auto result = join::RunJoin(a, &run_env, *w, params);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", join::AlgorithmName(a),
                   result.status().ToString().c_str());
      return 1;
    }
    const model::CostBreakdown predicted = model::Predict(a, inputs);
    std::printf("%-14s %14.2f %14.2f %10s %9llu\n", join::AlgorithmName(a),
                result->elapsed_ms / 1000.0, predicted.total_ms() / 1000.0,
                result->verified ? "yes" : "NO",
                static_cast<unsigned long long>(result->faults));
  }
  std::printf(
      "\nAll outputs checked against the reference join "
      "(%llu tuples).\n",
      static_cast<unsigned long long>(workload->expected_output_count));
  return 0;
}
