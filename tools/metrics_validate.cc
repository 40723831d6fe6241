// Validates `*.metrics.json` dumps with the observability layer's strict
// JSON parser (obs::JsonParse, RFC 8259 — the same parser the tests use to
// round-trip what the writers produce), optionally merging the validated
// documents into one artifact:
//
//   metrics_validate [--merge OUT.json]
//                    [--baseline BASE.json --tolerance PCT [--bench NAME]
//                     [--hist HISTOGRAM]]
//                    FILE...
//
// Every FILE must parse as a complete JSON document AND carry the bench
// dump shape (an object with a "bench" string and a "metrics" object);
// the first violation fails the run with a nonzero exit, which is what
// lets CI's bench-smoke job treat "the benches emitted garbage" as a
// build break. With --merge, the validated documents are embedded
// verbatim (they are known-good JSON) into
//
//   {"benches":[{"file":"<name>","doc":<document>}, ...]}
//
// With --baseline, each validated dump is additionally diffed against the
// dump of the SAME bench name inside the baseline merged artifact (the
// BENCH_ci.json shape above): the run fails if the current
// `join.elapsed_ms` histogram minimum — the fastest join the bench
// recorded, the most noise-robust wall-clock statistic it emits — exceeds
// the baseline's minimum by more than --tolerance percent. A bench absent
// from the baseline (or carrying no join.elapsed_ms) warns and passes, so
// adding a new bench never requires regenerating the baseline in the same
// change. --bench restricts the diff to one bench name (CI gates
// real_backend_join only; the figure benches are simulated-time).
// --hist picks a different histogram for the diff — the query-plan bench
// carries plan.elapsed_ms instead of join.elapsed_ms
// (scripts/bench_queries.sh passes --hist plan.elapsed_ms).
//
// Dumps carrying adaptive-planner telemetry get two extra trips against
// the baseline: the planner_regret geomean (planner.regret_geomean_x1000,
// same relative tolerance) and the mean absolute model error
// (join.model.error_pct mean, tolerance read as percentage POINTS — a
// closed loop whose predictions drift 25 points worse is broken even if
// the joins themselves got no slower).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// `hist` histogram minimum of one bench dump, or false if the dump
/// carries no such histogram.
bool ElapsedMin(const mmjoin::obs::JsonValue& dump, const std::string& hist,
                double* out) {
  const mmjoin::obs::JsonValue* metrics = dump.Find("metrics");
  if (!metrics || !metrics->is_object()) return false;
  const mmjoin::obs::JsonValue* hists = metrics->Find("histograms");
  if (!hists || !hists->is_object()) return false;
  const mmjoin::obs::JsonValue* h = hists->Find(hist);
  if (!h || !h->is_object()) return false;
  const mmjoin::obs::JsonValue* min = h->Find("min");
  if (!min || !min->is_number()) return false;
  *out = min->number;
  return true;
}

/// Counter value of one bench dump, or false if absent.
bool CounterValue(const mmjoin::obs::JsonValue& dump, const std::string& name,
                  double* out) {
  const mmjoin::obs::JsonValue* metrics = dump.Find("metrics");
  if (!metrics || !metrics->is_object()) return false;
  const mmjoin::obs::JsonValue* counters = metrics->Find("counters");
  if (!counters || !counters->is_object()) return false;
  const mmjoin::obs::JsonValue* c = counters->Find(name);
  if (!c || !c->is_number()) return false;
  *out = c->number;
  return true;
}

/// `hist` histogram mean of one bench dump, or false if absent.
bool HistMean(const mmjoin::obs::JsonValue& dump, const std::string& hist,
              double* out) {
  const mmjoin::obs::JsonValue* metrics = dump.Find("metrics");
  if (!metrics || !metrics->is_object()) return false;
  const mmjoin::obs::JsonValue* hists = metrics->Find("histograms");
  if (!hists || !hists->is_object()) return false;
  const mmjoin::obs::JsonValue* h = hists->Find(hist);
  if (!h || !h->is_object()) return false;
  const mmjoin::obs::JsonValue* mean = h->Find("mean");
  if (!mean || !mean->is_number()) return false;
  *out = mean->number;
  return true;
}

/// Finds the dump for `bench_name` inside a merged BENCH_ci.json artifact.
const mmjoin::obs::JsonValue* FindBaselineDump(
    const mmjoin::obs::JsonValue& baseline, const std::string& bench_name) {
  const mmjoin::obs::JsonValue* benches = baseline.Find("benches");
  if (!benches || !benches->is_array()) return nullptr;
  for (const mmjoin::obs::JsonValue& entry : benches->items) {
    const mmjoin::obs::JsonValue* doc = entry.Find("doc");
    if (!doc || !doc->is_object()) continue;
    const mmjoin::obs::JsonValue* name = doc->Find("bench");
    if (name && name->is_string() && name->str == bench_name) return doc;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string merge_path;
  std::string baseline_path;
  std::string bench_filter;
  std::string hist_name = "join.elapsed_ms";
  double tolerance_pct = 25.0;
  std::vector<std::string> files;
  for (int a = 1; a < argc; ++a) {
    auto need_value = [&](const char* flag) -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "metrics_validate: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++a];
    };
    if (std::strcmp(argv[a], "--merge") == 0) {
      merge_path = need_value("--merge");
    } else if (std::strcmp(argv[a], "--baseline") == 0) {
      baseline_path = need_value("--baseline");
    } else if (std::strcmp(argv[a], "--tolerance") == 0) {
      tolerance_pct = std::strtod(need_value("--tolerance"), nullptr);
    } else if (std::strcmp(argv[a], "--bench") == 0) {
      bench_filter = need_value("--bench");
    } else if (std::strcmp(argv[a], "--hist") == 0) {
      hist_name = need_value("--hist");
    } else {
      files.push_back(argv[a]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: metrics_validate [--merge OUT.json] "
                 "[--baseline BASE.json --tolerance PCT [--bench NAME] "
                 "[--hist HISTOGRAM]] FILE...\n");
    return 2;
  }

  mmjoin::obs::JsonValue baseline;
  if (!baseline_path.empty()) {
    std::string text;
    if (!ReadFile(baseline_path, &text)) {
      std::fprintf(stderr, "metrics_validate: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    auto doc = mmjoin::obs::JsonParse(text);
    if (!doc.ok() || !doc->is_object()) {
      std::fprintf(stderr, "metrics_validate: baseline %s: %s\n",
                   baseline_path.c_str(),
                   doc.ok() ? "not an object"
                            : doc.status().ToString().c_str());
      return 1;
    }
    baseline = std::move(doc).value();
  }
  int regressions = 0;

  std::string merged = "{\"benches\":[";
  bool first = true;
  for (const std::string& path : files) {
    std::string text;
    if (!ReadFile(path, &text)) {
      std::fprintf(stderr, "metrics_validate: cannot read %s\n",
                   path.c_str());
      return 1;
    }
    auto doc = mmjoin::obs::JsonParse(text);
    if (!doc.ok()) {
      std::fprintf(stderr, "metrics_validate: %s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    const mmjoin::obs::JsonValue* bench = doc->Find("bench");
    const mmjoin::obs::JsonValue* metrics = doc->Find("metrics");
    if (!doc->is_object() || !bench || !bench->is_string() || !metrics ||
        !metrics->is_object()) {
      std::fprintf(stderr,
                   "metrics_validate: %s: not a bench metrics dump "
                   "(need object with \"bench\" string and \"metrics\" "
                   "object)\n",
                   path.c_str());
      return 1;
    }
    const mmjoin::obs::JsonValue* counters = metrics->Find("counters");
    // Queries column: plan runs / output rows when the dump carries the
    // operator-layer telemetry, "-" for benches that never ran a plan.
    const mmjoin::obs::JsonValue* plan_runs =
        counters && counters->is_object() ? counters->Find("plan.runs")
                                          : nullptr;
    const mmjoin::obs::JsonValue* plan_rows =
        counters && counters->is_object()
            ? counters->Find("plan.output_rows")
            : nullptr;
    std::string queries_col = "queries=-";
    if (plan_runs && plan_runs->is_number() && plan_rows &&
        plan_rows->is_number()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "queries=%.0f/%.0f", plan_runs->number,
                    plan_rows->number);
      queries_col = buf;
    }
    // Index column: index probe traffic (probes/matches) when the dump
    // carries index-join telemetry, "-" for benches that never probe.
    const mmjoin::obs::JsonValue* ix_probes =
        counters && counters->is_object()
            ? counters->Find("join.index.probes")
            : nullptr;
    const mmjoin::obs::JsonValue* ix_matches =
        counters && counters->is_object()
            ? counters->Find("join.index.matches")
            : nullptr;
    std::string index_col = "index=-";
    if (ix_probes && ix_probes->is_number() && ix_matches &&
        ix_matches->is_number()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "index=%.0f/%.0f", ix_probes->number,
                    ix_matches->number);
      index_col = buf;
    }
    // Planner column: algorithm=auto decisions / mean absolute model error
    // when the dump carries the adaptive-planner telemetry, "-" for
    // benches that only ran explicit drivers.
    std::string planner_col = "planner=-";
    double auto_runs = 0, mean_err = 0;
    if (CounterValue(*doc, "join.planner.auto", &auto_runs) &&
        auto_runs > 0) {
      char buf[64];
      if (HistMean(*doc, "join.model.error_pct", &mean_err)) {
        std::snprintf(buf, sizeof(buf), "planner=%.0f/%.1f%%", auto_runs,
                      mean_err);
      } else {
        std::snprintf(buf, sizeof(buf), "planner=%.0f/-", auto_runs);
      }
      planner_col = buf;
    }
    std::printf("ok\t%s\tbench=%s\t%s\t%s\t%s\n", path.c_str(),
                bench->str.c_str(), queries_col.c_str(), index_col.c_str(),
                planner_col.c_str());

    if (!baseline_path.empty() &&
        (bench_filter.empty() || bench_filter == bench->str)) {
      const mmjoin::obs::JsonValue* base_dump =
          FindBaselineDump(baseline, bench->str);
      double cur_ms = 0, base_ms = 0;
      if (base_dump == nullptr) {
        std::printf("diff\t%s\tno baseline entry — skipped\n",
                    bench->str.c_str());
      } else if (!ElapsedMin(*doc, hist_name, &cur_ms) ||
                 !ElapsedMin(*base_dump, hist_name, &base_ms) ||
                 base_ms <= 0) {
        std::printf("diff\t%s\tno %s to compare — skipped\n",
                    bench->str.c_str(), hist_name.c_str());
      } else {
        const double delta_pct = (cur_ms - base_ms) / base_ms * 100.0;
        const bool regressed = delta_pct > tolerance_pct;
        std::printf("diff\t%s\t%s min %.2f -> %.2f ms "
                    "(%+.1f%%, tolerance %.0f%%)\t%s\n",
                    bench->str.c_str(), hist_name.c_str(), base_ms, cur_ms,
                    delta_pct, tolerance_pct, regressed ? "REGRESSED" : "ok");
        if (regressed) ++regressions;
      }
      // Planner trips: when both sides carry the adaptive-planner
      // telemetry, a worse regret geomean (beyond the same relative
      // tolerance) or a mean absolute model error that grew by more than
      // `tolerance` percentage points is a regression — the closed loop
      // got worse at picking or at predicting.
      double cur_regret = 0, base_regret = 0;
      if (base_dump != nullptr &&
          CounterValue(*doc, "planner.regret_geomean_x1000", &cur_regret) &&
          CounterValue(*base_dump, "planner.regret_geomean_x1000",
                       &base_regret) &&
          base_regret > 0) {
        const double delta_pct =
            (cur_regret - base_regret) / base_regret * 100.0;
        const bool regressed = delta_pct > tolerance_pct;
        std::printf("diff\t%s\tregret geomean %.3fx -> %.3fx "
                    "(%+.1f%%, tolerance %.0f%%)\t%s\n",
                    bench->str.c_str(), base_regret / 1000.0,
                    cur_regret / 1000.0, delta_pct, tolerance_pct,
                    regressed ? "REGRESSED" : "ok");
        if (regressed) ++regressions;
      }
      double cur_err = 0, base_err = 0;
      if (base_dump != nullptr &&
          HistMean(*doc, "join.model.error_pct", &cur_err) &&
          HistMean(*base_dump, "join.model.error_pct", &base_err)) {
        const double delta_pts = cur_err - base_err;
        const bool regressed = delta_pts > tolerance_pct;
        std::printf("diff\t%s\tmodel |error| mean %.1f%% -> %.1f%% "
                    "(%+.1f pts, tolerance %.0f pts)\t%s\n",
                    bench->str.c_str(), base_err, cur_err, delta_pts,
                    tolerance_pct, regressed ? "REGRESSED" : "ok");
        if (regressed) ++regressions;
      }
    }

    if (!merge_path.empty()) {
      if (!first) merged += ',';
      first = false;
      merged += "{\"file\":\"" + mmjoin::obs::JsonEscape(path) +
                "\",\"doc\":" + text + "}";
    }
  }

  if (!merge_path.empty()) {
    merged += "]}";
    // The merge must itself survive the strict parser — embedding is only
    // verbatim-safe if the inputs really were complete documents.
    auto check = mmjoin::obs::JsonParse(merged);
    if (!check.ok()) {
      std::fprintf(stderr, "metrics_validate: merged artifact invalid: %s\n",
                   check.status().ToString().c_str());
      return 1;
    }
    std::FILE* f = std::fopen(merge_path.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "metrics_validate: cannot open %s\n",
                   merge_path.c_str());
      return 1;
    }
    std::fwrite(merged.data(), 1, merged.size(), f);
    std::fclose(f);
    std::printf("merged\t%s\t%zu files\n", merge_path.c_str(), files.size());
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "metrics_validate: %d bench(es) regressed beyond %.0f%%\n",
                 regressions, tolerance_pct);
    return 1;
  }
  return 0;
}
