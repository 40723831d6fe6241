// Shared helpers for the figure-regeneration benches: paper-scale workload
// construction, model-vs-experiment sweeps, TSV output in the shape of the
// paper's plots, and the machine-readable `<bench>.metrics.json` dump every
// bench writes alongside its table (see Metrics()/WriteMetricsJson below).
#ifndef MMJOIN_BENCH_BENCH_COMMON_H_
#define MMJOIN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "join/drivers.h"
#include "join/grace.h"
#include "join/hybrid_hash.h"
#include "join/index_nl.h"
#include "join/mpsm.h"
#include "join/nested_loops.h"
#include "join/sort_merge.h"
#include "model/join_model.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rel/generator.h"
#include "sim/sim_env.h"

namespace mmjoin::bench {

/// The bench-wide metrics sink. Join runs recorded here (RunSweep does it
/// automatically; direct-run benches call RecordRun) are dumped by
/// WriteMetricsJson as `<bench>.metrics.json` in the working directory.
inline obs::MetricsRegistry& Metrics() {
  static obs::MetricsRegistry registry;
  return registry;
}

/// Accumulates one join run into Metrics().
inline void RecordRun(const join::JoinRunResult& result) {
  result.ExportMetrics(&Metrics());
}

/// One point of a model-vs-experiment sweep.
struct SweepPoint {
  double x = 0;              ///< M_Rproc / (|R| * r)
  double model_s = 0;        ///< predicted Time/Rproc, seconds
  double experiment_s = 0;   ///< measured Time/Rproc, seconds
  bool verified = false;
  uint64_t faults = 0;
  uint64_t npass = 0;        ///< sort-merge merging passes (0 otherwise)
  uint32_t k_buckets = 0;    ///< Grace K (0 otherwise)
};

/// Environment bundle reused across sweep points (fresh SimEnv per point so
/// cache/disk state never leaks between runs).
struct SweepConfig {
  join::Algorithm algorithm = join::Algorithm::kNestedLoops;
  rel::RelationConfig relation;    ///< defaults = paper scale
  sim::MachineConfig machine = sim::MachineConfig::SequentSymmetry1996();
  std::vector<double> memory_fractions;  ///< x-axis: M_Rproc / (|R| * r)
  join::JoinParams params;               ///< memory fields are overwritten
};

/// Optional CLI reshaping shared by the figure benches:
///
///   <bench> [objects]
///
/// With no argument the bench runs at paper scale. An explicit object
/// count (CI's bench-smoke job passes a few thousand) shrinks the
/// relations AND thins the memory-fraction sweep to at most four points —
/// the smoke run checks that the pipeline executes and verifies, not the
/// figures' resolution.
inline void ApplyCliShape(SweepConfig* cfg, int argc, char** argv) {
  if (argc <= 1) return;
  const uint64_t objects = std::strtoull(argv[1], nullptr, 10);
  if (objects == 0) return;
  cfg->relation.r_objects = objects;
  cfg->relation.s_objects = objects;
  if (cfg->memory_fractions.size() > 4) {
    std::vector<double> thinned;
    const size_t n = cfg->memory_fractions.size();
    const size_t step = (n + 3) / 4;
    for (size_t i = 0; i < n; i += step) {
      thinned.push_back(cfg->memory_fractions[i]);
    }
    if (thinned.back() != cfg->memory_fractions.back()) {
      thinned.push_back(cfg->memory_fractions.back());
    }
    cfg->memory_fractions = std::move(thinned);
  }
}

/// Runs one model-vs-experiment sweep over memory fractions.
inline std::vector<SweepPoint> RunSweep(const SweepConfig& cfg) {
  std::vector<SweepPoint> points;
  const double r_bytes = static_cast<double>(cfg.relation.r_objects) *
                         sizeof(rel::RObject);

  // Measure the dtt curves once (they depend only on the disk geometry).
  model::DttCurves dtt = model::MeasureDttCurves(cfg.machine.disk);

  for (double frac : cfg.memory_fractions) {
    SweepPoint pt;
    pt.x = frac;
    const uint64_t mem = static_cast<uint64_t>(frac * r_bytes);

    sim::SimEnv env(cfg.machine);
    auto workload = rel::BuildWorkload(&env, cfg.relation);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      continue;
    }

    join::JoinParams params = cfg.params;
    params.m_rproc_bytes = mem;
    params.m_sproc_bytes = mem;

    auto result = join::RunJoin(cfg.algorithm, &env, *workload, params);
    if (!result.ok()) {
      std::fprintf(stderr, "join: %s\n", result.status().ToString().c_str());
      continue;
    }
    RecordRun(*result);
    pt.experiment_s = result->elapsed_ms / 1000.0;
    pt.verified = result->verified;
    pt.faults = result->faults;
    pt.npass = result->npass;
    pt.k_buckets = result->k_buckets;

    model::ModelInputs inputs;
    inputs.machine = cfg.machine;
    inputs.relation = cfg.relation;
    inputs.skew = workload->skew;
    inputs.params = params;
    inputs.dtt = dtt;
    pt.model_s = model::Predict(cfg.algorithm, inputs).total_ms() / 1000.0;

    points.push_back(pt);
  }
  return points;
}

/// Runs one point and prints the per-pass breakdown (the granularity at
/// which the paper's analysis assigns costs).
inline void PrintPassBreakdown(const SweepConfig& cfg, double frac) {
  sim::SimEnv env(cfg.machine);
  auto workload = rel::BuildWorkload(&env, cfg.relation);
  if (!workload.ok()) return;
  join::JoinParams params = cfg.params;
  params.m_rproc_bytes = static_cast<uint64_t>(
      frac * static_cast<double>(cfg.relation.r_objects) *
      sizeof(rel::RObject));
  params.m_sproc_bytes = params.m_rproc_bytes;
  auto result = join::RunJoin(cfg.algorithm, &env, *workload, params);
  if (!result.ok()) return;
  std::printf("\n# per-pass breakdown at x = %.3f (seconds, faults)\n",
              frac);
  std::printf("pass\tseconds\tfaults\n");
  for (const auto& pass : result->passes) {
    std::printf("%s\t%.2f\t%llu\n", pass.label.c_str(),
                pass.elapsed_ms / 1000.0,
                static_cast<unsigned long long>(pass.faults));
  }
}

/// Writes `<bench_name>.metrics.json` in the working directory: the sweep
/// points (if any) plus the full Metrics() registry dump. The registry's
/// `join.faults` counter equals the sum of the printed table's faults column
/// as long as every run that reaches the table went through RecordRun (and
/// nothing else — PrintPassBreakdown deliberately runs outside the sink).
inline void WriteMetricsJson(const std::string& bench_name,
                             const std::vector<SweepPoint>& points = {}) {
  std::string json = "{\"bench\":\"" + obs::JsonEscape(bench_name) + "\",";
  json += "\"points\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    if (i) json += ',';
    json += "{\"x\":" + obs::JsonNumber(p.x);
    json += ",\"model_s\":" + obs::JsonNumber(p.model_s);
    json += ",\"experiment_s\":" + obs::JsonNumber(p.experiment_s);
    json += ",\"faults\":" + obs::JsonNumber(static_cast<double>(p.faults));
    json += ",\"npass\":" + obs::JsonNumber(static_cast<double>(p.npass));
    json +=
        ",\"k_buckets\":" + obs::JsonNumber(static_cast<double>(p.k_buckets));
    json += ",\"verified\":";
    json += p.verified ? "true" : "false";
    json += '}';
  }
  json += "],\"metrics\":" + Metrics().ToJson() + "}";
  const std::string path = bench_name + ".metrics.json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "metrics: cannot open %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("# metrics: wrote %s\n", path.c_str());
}

/// Prints the sweep in the paper's plot shape (TSV).
inline void PrintSweep(const char* title, const char* figure,
                       const std::vector<SweepPoint>& points) {
  std::printf("# %s (%s)\n", title, figure);
  std::printf(
      "# x = M_Rproc/(|R|*r); times are seconds per Rproc\n"
      "x\tmodel_s\texperiment_s\tratio\tverified\tfaults\n");
  for (const auto& p : points) {
    std::printf("%.4f\t%.2f\t%.2f\t%.3f\t%s\t%llu\n", p.x, p.model_s,
                p.experiment_s,
                p.experiment_s > 0 ? p.model_s / p.experiment_s : 0.0,
                p.verified ? "yes" : "NO",
                static_cast<unsigned long long>(p.faults));
  }
}

}  // namespace mmjoin::bench

#endif  // MMJOIN_BENCH_BENCH_COMMON_H_
