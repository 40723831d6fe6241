// Trace demo: run all three parallel pointer-based joins on a reduced
// workload with a TraceRecorder attached, and write one Chrome trace-event
// JSON file per algorithm.
//
// View a trace:
//   1. ./build/examples/trace_demo
//   2. open https://ui.perfetto.dev (or chrome://tracing) and load
//      nested-loops.trace.json
//   3. each "process" track is one disk; inside it, thread 1 is the Rproc
//      and thread 2 is the Sproc. Pass/phase spans nest above the instant
//      "fault" ticks; barrier-wait spans show where synchronization stalls.
//
// Tracing never charges simulated time, so the elapsed times printed here
// are identical to an untraced run (obs_integration_test asserts this).
#include <cstdio>
#include <string>

#include "mmjoin/mmjoin.h"

int main() {
  using namespace mmjoin;

  const sim::MachineConfig machine = sim::MachineConfig::SequentSymmetry1996();

  // A reduced workload (1/8 of the paper's) keeps the trace files small
  // enough to load comfortably while preserving the phase structure.
  rel::RelationConfig relation;
  relation.r_objects = 12800;
  relation.s_objects = 12800;

  join::JoinParams params;
  params.m_rproc_bytes = static_cast<uint64_t>(
      0.10 * relation.r_objects * sizeof(rel::RObject));
  params.m_sproc_bytes = params.m_rproc_bytes;


  std::printf("%-24s %10s %9s %8s\n", "trace", "elapsed_s", "faults",
              "events");
  for (join::Algorithm a : join::kPaperDrivers) {
    const std::string file =
        std::string(join::AlgorithmName(a)) + ".trace.json";
    sim::SimEnv env(machine);
    obs::TraceRecorder trace;
    env.set_trace(&trace);

    auto workload = rel::BuildWorkload(&env, relation);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    auto result = join::RunJoin(a, &env, *workload, params);
    if (!result.ok() || !result->verified) {
      std::fprintf(stderr, "%s: run failed or unverified\n", file.c_str());
      return 1;
    }

    // Self-check: the export must parse as JSON and the fault events must
    // account for every fault the run reported.
    auto parsed = obs::JsonParse(trace.ToJson());
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: export is not valid JSON: %s\n", file.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    if (trace.CountEvents("fault") != result->faults) {
      std::fprintf(stderr, "%s: trace has %llu fault events, run reports %llu\n",
                   file.c_str(),
                   static_cast<unsigned long long>(trace.CountEvents("fault")),
                   static_cast<unsigned long long>(result->faults));
      return 1;
    }

    Status written = trace.WriteFile(file);
    if (!written.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("%-24s %10.2f %9llu %8llu\n", file.c_str(),
                result->elapsed_ms / 1000.0,
                static_cast<unsigned long long>(result->faults),
                static_cast<unsigned long long>(trace.size()));
  }
  std::printf(
      "\nLoad any of these files at https://ui.perfetto.dev "
      "(pid = disk, tid 1 = Rproc, tid 2 = Sproc).\n");
  return 0;
}
