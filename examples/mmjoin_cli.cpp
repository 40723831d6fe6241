// mmjoin_cli: command-line driver for the simulated join environment.
// Configure the machine, relations and algorithm from flags, run the join,
// and optionally compare against the analytical model and print the
// per-pass breakdown.
//
//   ./build/examples/mmjoin_cli --algorithm=grace --r=102400 --s=102400
//       --disks=4 --theta=0.0 --mem-frac=0.05 --model --passes
//
// `mmjoin_cli --help` lists every flag with its default.
//
// Both backends run the identical driver templates (exec/join_drivers.h);
// --backend only selects what "time" and "memory" mean.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mmjoin/mmjoin.h"
#include "util/cli.h"

namespace {

using namespace mmjoin;

/// The usage text after its --algorithm line, which Usage() builds.
constexpr char kFlagsUsage[] =
    "                                which join [all] (--algo alias;\n"
    "                                auto = adaptive planner)\n"
    "  --calibration=PATH            planner calibration for auto (real)\n"
    "  --backend=sim|real            costed simulator or real mmap [sim]\n"
    "  --r=N --s=N                   relation sizes in objects    [102400]\n"
    "  --disks=D                     partitions/disks             [4]\n"
    "  --theta=T                     Zipf skew of S-pointers      [0.0]\n"
    "  --mem-frac=X                  M_Rproc as fraction of |R|   [0.05]\n"
    "  --mem-bytes=N                 M_Rproc in bytes (overrides)\n"
    "  --g=N                         G buffer bytes (sim only)    [page]\n"
    "  --policy=lru|clock|fifo       replacement policy (sim)     [lru]\n"
    "  --sync=auto|on|off            phase synchronization (sim)  [auto]\n"
    "  --seed=N                      workload seed\n"
    "  --dir=PATH                    segment directory (real)     [tmp]\n"
    "  --threads=N                   worker-thread cap (real)     [cores]\n"
    "  --morsel-tuples=N             tuples per morsel (real)     [16384]\n"
    "  --paging=none|advise          mmap paging policy (real)    [advise]\n"
    "  --numa=none|interleave|local  temp placement (real)        [none]\n"
    "  --model                       also print the model's prediction\n"
    "  --passes                      print the per-pass breakdown\n"
    "  --plan=q1|q4|q6               run a built-in query plan instead of\n"
    "                                a join (same --backend/knobs; see\n"
    "                                docs/PROTOCOL.md for the plan shapes)\n"
    "  --store=DIR                   durable store dir (real): reopen the\n"
    "                                persisted workload if one exists,\n"
    "                                else build + persist; files are kept\n"
    "  --msync=none|async|sync       seal policy for --store       [none]\n";

struct Flags {
  std::string algorithm = "all";
  std::string backend = "sim";
  rel::RelationConfig relation;
  double mem_frac = 0.05;
  uint64_t mem_bytes = 0;
  uint64_t g_bytes = 0;
  std::string policy = "lru";
  std::string sync = "auto";
  std::string dir;
  uint32_t threads = 0;
  uint64_t morsel_tuples = 0;
  std::string paging = "advise";
  std::string numa = "none";
  bool show_model = false;
  bool show_passes = false;
  std::string plan;
  std::string store;
  mm::MsyncPolicy msync = mm::MsyncPolicy::kNone;
  std::string calibration;
};

const char* Usage() {
  static const std::string usage =
      "usage: mmjoin_cli [flags]\n  --algorithm=" +
      join::AlgorithmNames("|") + "|" + join::kAutoAlgorithmName + "|all\n" +
      kFlagsUsage;
  return usage.c_str();
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

void ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--algorithm", &v) ||
        ParseFlag(argv[i], "--algo", &v)) {
      flags->algorithm = v;
    } else if (ParseFlag(argv[i], "--calibration", &v)) {
      flags->calibration = v;
    } else if (ParseFlag(argv[i], "--backend", &v)) {
      flags->backend = v;
    } else if (ParseFlag(argv[i], "--dir", &v)) {
      flags->dir = v;
    } else if (ParseFlag(argv[i], "--threads", &v)) {
      flags->threads =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--morsel-tuples", &v)) {
      flags->morsel_tuples = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--paging", &v)) {
      flags->paging = v;
    } else if (ParseFlag(argv[i], "--numa", &v)) {
      flags->numa = v;
    } else if (ParseFlag(argv[i], "--r", &v)) {
      flags->relation.r_objects = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--s", &v)) {
      flags->relation.s_objects = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--disks", &v)) {
      flags->relation.num_partitions =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--theta", &v)) {
      flags->relation.zipf_theta = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      flags->relation.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--mem-frac", &v)) {
      flags->mem_frac = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--mem-bytes", &v)) {
      flags->mem_bytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--g", &v)) {
      flags->g_bytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--policy", &v)) {
      flags->policy = v;
    } else if (ParseFlag(argv[i], "--sync", &v)) {
      flags->sync = v;
    } else if (std::strcmp(argv[i], "--model") == 0) {
      flags->show_model = true;
    } else if (std::strcmp(argv[i], "--passes") == 0) {
      flags->show_passes = true;
    } else if (ParseFlag(argv[i], "--plan", &v)) {
      flags->plan = v;
    } else if (ParseFlag(argv[i], "--store", &v)) {
      flags->store = v;
    } else if (ParseFlag(argv[i], "--msync", &v)) {
      StatusOr<mm::MsyncPolicy> parsed = mm::ParseMsyncPolicy(v);
      if (!parsed.ok()) cli::BadFlagValue("mmjoin_cli", argv[i], Usage());
      flags->msync = *parsed;
    } else {
      cli::UnknownFlag("mmjoin_cli", argv[i], Usage());
    }
  }
}

int RunOne(join::Algorithm a, const Flags& flags,
           const sim::MachineConfig& machine, const join::JoinParams& params,
           const model::DttCurves* dtt) {
  sim::SimEnv env(machine);
  auto workload = rel::BuildWorkload(&env, flags.relation);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  auto result = join::RunJoin(a, &env, *workload, params);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", join::AlgorithmName(a),
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%-14s time/Rproc %10.2f s   faults %8llu   verified %s\n",
              join::AlgorithmName(a), result->elapsed_ms / 1000.0,
              static_cast<unsigned long long>(result->faults),
              result->verified ? "yes" : "NO");
  if (flags.show_model && dtt != nullptr) {
    model::ModelInputs in;
    in.machine = machine;
    in.relation = flags.relation;
    in.skew = workload->skew;
    in.params = params;
    in.dtt = *dtt;
    const model::CostBreakdown c = model::Predict(a, in);
    std::printf("  model: total %.2f s  (io %.2f, cpu %.2f, cs %.2f, "
                "setup %.2f)\n",
                c.total_ms() / 1000.0, c.io_ms / 1000.0, c.cpu_ms / 1000.0,
                c.cs_ms / 1000.0, c.setup_ms / 1000.0);
  }
  if (flags.show_passes) {
    for (const auto& pass : result->passes) {
      std::printf("  pass %-16s %10.2f s   faults %8llu\n",
                  pass.label.c_str(), pass.elapsed_ms / 1000.0,
                  static_cast<unsigned long long>(pass.faults));
    }
  }
  return 0;
}

/// Resolves the real-backend morsel/paging/numa flags; false on a bad
/// value.
bool ResolveRealOptions(const Flags& flags, mm::MmJoinOptions* options) {
  options->morsel_tuples = flags.morsel_tuples;
  if (flags.numa == "none") {
    options->numa = exec::NumaMode::kNone;
  } else if (flags.numa == "interleave") {
    options->numa = exec::NumaMode::kInterleave;
  } else if (flags.numa == "local") {
    options->numa = exec::NumaMode::kLocal;
  } else {
    std::fprintf(stderr, "bad --numa\n");
    return false;
  }
  if (flags.paging == "none") {
    options->paging = exec::PagingMode::kNone;
  } else if (flags.paging == "advise") {
    options->paging = exec::PagingMode::kAdvise;
  } else {
    std::fprintf(stderr, "bad --paging\n");
    return false;
  }
  return true;
}

int RunOneReal(join::Algorithm a, const Flags& flags,
               const mm::MmWorkload& workload, const join::JoinParams& params,
               const mm::MmJoinOptions& real_options) {
  mm::MmJoinOptions options = real_options;
  options.m_rproc_bytes = params.m_rproc_bytes;
  options.k_buckets = params.k_buckets;
  options.tsize = params.tsize;
  options.max_threads = flags.threads;
  auto result = join::Driver(a).real(workload, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", join::AlgorithmName(a),
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%-14s wall %10.2f ms   threads %2u   faults %8llu   "
              "verified %s\n",
              join::AlgorithmName(a), result->wall_ms, result->threads_used,
              static_cast<unsigned long long>(result->run.faults),
              result->verified ? "yes" : "NO");
  if (!result->paging_status.ok()) {
    std::fprintf(stderr, "  paging: %llu advice failure(s), first: %s\n",
                 static_cast<unsigned long long>(
                     result->run.paging_advise_errors),
                 result->paging_status.ToString().c_str());
  }
  if (flags.show_passes) {
    for (const auto& pass : result->run.passes) {
      std::printf("  pass %-16s %10.2f ms   faults %8llu\n",
                  pass.label.c_str(), pass.elapsed_ms,
                  static_cast<unsigned long long>(pass.faults));
    }
  }
  return 0;
}

/// --algorithm=auto on the real backend: one MmJoin call with `algorithm`
/// unset, through an AdaptiveController (persistent when --calibration
/// names a file), with the decision and the model's predicted-vs-actual
/// echoed.
int RunAutoReal(const Flags& flags, const mm::MmWorkload& workload,
                const join::JoinParams& params,
                const mm::MmJoinOptions& real_options) {
  opt::AdaptiveController controller(flags.calibration);
  if (!flags.calibration.empty()) {
    std::printf("planner: calibration %s (%s)\n", flags.calibration.c_str(),
                controller.loaded_from_file() ? "loaded" : "new");
  }
  mm::MmJoinOptions options = real_options;
  options.m_rproc_bytes = params.m_rproc_bytes;
  options.max_threads = flags.threads;
  options.planner = &controller;
  auto result = mm::MmJoin(workload, options);
  if (!result.ok()) {
    std::fprintf(stderr, "auto: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("planner: %s\n", result->planner_note.c_str());
  std::printf("%-14s wall %10.2f ms   threads %2u   faults %8llu   "
              "verified %s\n",
              join::AlgorithmName(result->algorithm), result->wall_ms,
              result->threads_used,
              static_cast<unsigned long long>(result->run.faults),
              result->verified ? "yes" : "NO");
  std::printf("  model: predicted %.2f ms, actual %.2f ms (error %+.1f%%)\n",
              result->run.model_predicted_ms, result->wall_ms,
              result->run.model_error_pct);
  if (flags.show_passes) {
    for (const auto& pass : result->run.passes) {
      std::printf("  pass %-16s %10.2f ms   faults %8llu\n",
                  pass.label.c_str(), pass.elapsed_ms,
                  static_cast<unsigned long long>(pass.faults));
    }
  }
  return result->verified ? 0 : 1;
}

void PrintPlanResult(const exec::op::PlanRunResult& r, bool verified,
                     const char* time_unit, double time_scale) {
  std::printf("plan           %s %10.2f %s   threads %2u   verified %s\n",
              time_unit[0] == 'm' ? "wall" : "time", r.elapsed_ms * time_scale,
              time_unit, r.threads_used, verified ? "yes" : "NO");
  std::printf("  rows: scanned %llu -> filtered %llu -> joined %llu -> "
              "output %llu\n",
              static_cast<unsigned long long>(r.rows_scanned),
              static_cast<unsigned long long>(r.rows_filtered),
              static_cast<unsigned long long>(r.rows_joined),
              static_cast<unsigned long long>(r.output_rows));
  std::printf("  checksum 0x%016llx   groups %zu\n",
              static_cast<unsigned long long>(r.checksum), r.groups.size());
  for (const auto& g : r.groups) {
    std::printf("  group %llu:", static_cast<unsigned long long>(g.key));
    for (uint64_t a : g.aggs) {
      std::printf(" %llu", static_cast<unsigned long long>(a));
    }
    std::printf("\n");
  }
}

int RunPlanCli(const Flags& flags, const join::JoinParams& params,
               const sim::MachineConfig& machine) {
  const exec::op::PlanSpec* spec = exec::op::FindPlan(flags.plan);
  if (spec == nullptr) {
    std::fprintf(stderr, "bad --plan '%s'; built-ins:\n", flags.plan.c_str());
    for (const std::string& line : exec::op::PlanDescriptions()) {
      std::fprintf(stderr, "  %s\n", line.c_str());
    }
    return 2;
  }
  std::printf("plan %s: %s\n\n", spec->name.c_str(),
              spec->description.c_str());
  if (flags.backend == "sim") {
    sim::SimEnv env(machine);
    auto workload = rel::BuildWorkload(&env, flags.relation);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    bool verified = false;
    auto result = exec::op::RunPlanSim(&env, *workload, params, *spec,
                                       &verified);
    if (!result.ok()) {
      std::fprintf(stderr, "plan: %s\n", result.status().ToString().c_str());
      return 1;
    }
    PrintPlanResult(*result, verified, "s ", 0.001);
    return verified ? 0 : 1;
  }
  mm::MmJoinOptions options;
  if (!ResolveRealOptions(flags, &options)) return 2;
  options.max_threads = flags.threads;
  std::string dir = flags.dir.empty()
                        ? "/tmp/mmjoin_cli_" + std::to_string(::getpid())
                        : flags.dir;
  ::mkdir(dir.c_str(), 0755);
  mm::SegmentManager mgr(dir);
  (void)mm::DeleteMmWorkload(&mgr, "cli", flags.relation.num_partitions);
  auto workload = mm::BuildMmWorkload(&mgr, "cli", flags.relation);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  auto result = mm::MmRunPlan(*workload, *spec, options);
  int rc = 0;
  if (!result.ok()) {
    std::fprintf(stderr, "plan: %s\n", result.status().ToString().c_str());
    rc = 1;
  } else {
    PrintPlanResult(result->plan, result->verified, "ms", 1.0);
    if (!result->verified) rc = 1;
  }
  workload->r_segs.clear();
  workload->s_segs.clear();
  (void)mm::DeleteMmWorkload(&mgr, "cli", flags.relation.num_partitions);
  if (flags.dir.empty()) ::rmdir(dir.c_str());
  return rc;
}

int RunReal(const std::vector<join::Algorithm>& algorithms, const Flags& flags,
            const join::JoinParams& params) {
  mm::MmJoinOptions real_options;
  if (!ResolveRealOptions(flags, &real_options)) return 2;
  std::printf("real backend: morsel-tuples=%llu paging=%s numa=%s\n",
              static_cast<unsigned long long>(
                  real_options.morsel_tuples ? real_options.morsel_tuples
                                             : exec::kDefaultMorselTuples),
              exec::PagingModeName(real_options.paging),
              exec::NumaModeName(real_options.numa));
  std::printf("topology: %s\n\n",
              exec::NumaTopologySummary(exec::QueryNumaTopology()).c_str());
  const bool durable = !flags.store.empty();
  std::string dir = durable ? flags.store
                   : flags.dir.empty()
                       ? "/tmp/mmjoin_cli_" + std::to_string(::getpid())
                       : flags.dir;
  ::mkdir(dir.c_str(), 0755);
  mm::SegmentManager mgr(dir);
  StatusOr<mm::MmWorkload> workload = Status::NotFound("unbuilt");
  if (durable && mm::MmWorkloadStoreExists(mgr, "cli")) {
    // Warm path: reattach through the sealed openers. A torn store is
    // refused with a checksum error here — the CI recovery job depends on
    // that refusal being loud, so it goes to stderr verbatim.
    workload = mm::OpenMmWorkload(&mgr, "cli");
    if (!workload.ok()) {
      std::fprintf(stderr, "store: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    std::printf("store: reopened %s/cli (|R|=%llu |S|=%llu D=%u)\n",
                dir.c_str(),
                static_cast<unsigned long long>(workload->config.r_objects),
                static_cast<unsigned long long>(workload->config.s_objects),
                workload->config.num_partitions);
  } else {
    (void)mm::DeleteMmWorkload(&mgr, "cli", flags.relation.num_partitions);
    workload = mm::BuildMmWorkload(&mgr, "cli", flags.relation);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    if (durable) {
      const Status st =
          mm::PersistMmWorkload(&mgr, "cli", &*workload, flags.msync);
      if (!st.ok()) {
        std::fprintf(stderr, "persist: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("store: persisted %s/cli\n", dir.c_str());
    }
  }
  int rc = 0;
  if (flags.algorithm == join::kAutoAlgorithmName) {
    rc = RunAutoReal(flags, *workload, params, real_options);
  } else {
    for (auto a : algorithms) {
      rc = RunOneReal(a, flags, *workload, params, real_options);
      if (rc != 0) break;
    }
  }
  workload->r_segs.clear();
  workload->s_segs.clear();
  if (!durable) {
    (void)mm::DeleteMmWorkload(&mgr, "cli", flags.relation.num_partitions);
    if (flags.dir.empty()) ::rmdir(dir.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  ParseFlags(argc, argv, &flags);

  sim::MachineConfig machine = sim::MachineConfig::SequentSymmetry1996();
  machine.num_disks = flags.relation.num_partitions;

  join::JoinParams params;
  params.m_rproc_bytes =
      flags.mem_bytes
          ? flags.mem_bytes
          : static_cast<uint64_t>(flags.mem_frac * flags.relation.r_objects *
                                  sizeof(rel::RObject));
  params.m_sproc_bytes = params.m_rproc_bytes;
  params.g_bytes = flags.g_bytes;
  if (flags.policy == "clock") {
    params.policy = vm::PolicyKind::kClock;
  } else if (flags.policy == "fifo") {
    params.policy = vm::PolicyKind::kFifo;
  } else if (flags.policy != "lru") {
    std::fprintf(stderr, "bad --policy\n");
    return 2;
  }
  if (flags.sync == "on") {
    params.phase_sync = true;
  } else if (flags.sync == "off") {
    params.phase_sync = false;
  } else if (flags.sync != "auto") {
    std::fprintf(stderr, "bad --sync\n");
    return 2;
  }

  std::printf("|R|=%llu |S|=%llu D=%u theta=%.2f M_Rproc=%llu B G=%llu\n\n",
              static_cast<unsigned long long>(flags.relation.r_objects),
              static_cast<unsigned long long>(flags.relation.s_objects),
              flags.relation.num_partitions, flags.relation.zipf_theta,
              static_cast<unsigned long long>(params.m_rproc_bytes),
              static_cast<unsigned long long>(
                  params.g_bytes ? params.g_bytes : machine.page_size));

  const bool auto_select = flags.algorithm == join::kAutoAlgorithmName;
  model::DttCurves dtt;
  if (flags.show_model || (auto_select && flags.backend == "sim")) {
    dtt = model::MeasureDttCurves(machine.disk);
  }

  std::vector<join::Algorithm> algorithms;
  if (auto_select) {
    // Real backend: resolved inside RunReal by MmJoin's planner. Sim
    // backend: the analytic models rank the four modeled drivers here.
    if (flags.backend == "sim") {
      sim::SimEnv env(machine);
      auto workload = rel::BuildWorkload(&env, flags.relation);
      if (!workload.ok()) {
        std::fprintf(stderr, "workload: %s\n",
                     workload.status().ToString().c_str());
        return 1;
      }
      model::ModelInputs in;
      in.machine = machine;
      in.relation = flags.relation;
      in.skew = workload->skew;
      in.params = params;
      in.dtt = dtt;
      const join::Algorithm pick = opt::PlanSimJoin(in);
      std::printf("planner: picked %s (sim analytic model)\n\n",
                  join::AlgorithmName(pick));
      algorithms = {pick};
    }
  } else if (flags.algorithm == "all") {
    for (const join::DriverSpec& d : join::kDrivers) {
      algorithms.push_back(d.algorithm);
    }
  } else if (auto a = join::ParseAlgorithm(flags.algorithm)) {
    algorithms = {*a};
  } else {
    cli::BadFlagValue("mmjoin_cli", "--algorithm=" + flags.algorithm,
                      Usage());
  }

  if (flags.backend != "sim" && flags.backend != "real") {
    std::fprintf(stderr, "bad --backend\n");
    return 2;
  }
  if (!flags.plan.empty()) {
    return RunPlanCli(flags, params, machine);
  }
  if (flags.backend == "real") {
    return RunReal(algorithms, flags, params);
  }

  for (auto a : algorithms) {
    const int rc =
        RunOne(a, flags, machine, params, flags.show_model ? &dtt : nullptr);
    if (rc != 0) return rc;
  }
  return 0;
}
