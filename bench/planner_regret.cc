// Planner-regret bench: scores the adaptive planner (src/opt/) against
// ground truth on a grid of real mmap workloads. Every cell of the grid
// (size x skew x |S|/|R| selectivity x residency) measures all six
// explicit drivers (best-of-reps, reps interleaved so machine-load drift
// hits every driver equally), then lets MmJoin(algorithm=auto) pick with
// a MEASURED machine calibration, and charges the planner
//
//   regret = measured_ms[picked driver] / min over drivers measured_ms
//
// — both sides from the same explicit measurements, so auto-run noise
// never pollutes the score. The closed loop is live: every auto run feeds
// its predicted-vs-actual pair back into the controller's per-driver EWMA
// correction, and one untimed warm-up auto run per cell gives the
// correction a cell to learn from before the scored pick.
//
//   ./build/bench/planner_regret [objects] [partitions] [dir]
//
// Defaults: 65536 objects per relation at the large grid size (the small
// size is objects/8), 8 partitions, a throwaway directory under /tmp.
//
// Identity is asserted unconditionally, twice per cell: all six explicit
// drivers must produce the same verified count/checksum, and the auto run
// must match them bit for bit (the planner only picks, it never changes
// semantics).
//
// Env knobs (scripts/bench_planner.sh, not CI):
//   MMJOIN_PLANNER_REPS=<n>   best-of-n per driver and for the scored
//                             auto run                        [2]
//   MMJOIN_PLANNER_ASSERT=1   arm the regret gate: geomean regret over
//                             the grid <= 1.10 AND no single cell worse
//                             than 1.5x the best driver       [off]
//   MMJOIN_PLANNER_CAL=PATH   persist the controller's calibration +
//                             learned corrections at PATH (loads it first
//                             if present)                     [in-memory]
//
// The "cold" residency cells MADV_DONTNEED every workload segment before
// each timed run: pages drop out of the mapping (mincore reports them
// gone — the planner's residency probe sees a cold store) and every
// access re-faults. The run header prints the NUMA topology and the
// measured calibration so the committed BENCH_planner.json records what
// machine the regret numbers were scored on.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/numa.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "opt/adaptive.h"
#include "opt/calibration.h"
#include "util/cli.h"

namespace {

using namespace mmjoin;

constexpr char kUsage[] =
    "usage: planner_regret [objects] [partitions] [dir]\n"
    "  objects     objects per relation at the large size  [65536]\n"
    "  partitions  partitions                              [8]\n"
    "  dir         segment directory           [/tmp/mmjoin_planner_*]\n"
    "Env knobs: MMJOIN_PLANNER_REPS, MMJOIN_PLANNER_ASSERT,\n"
    "MMJOIN_PLANNER_CAL (see the file header).\n";

// All six, dispatched through MmJoin(algorithm=explicit) — the same entry
// point auto uses, documented bit-identical to the per-driver functions.
using join::kDrivers;
constexpr size_t kNumDrivers = join::kNumAlgorithms;

struct Cell {
  uint64_t r, s;
  double theta;
  bool cold;
};

/// Drops every workload page out of the mappings (MADV_DONTNEED): the
/// next access re-faults and the planner's mincore probe sees a cold
/// store. Shared file-backed pages are repopulated from the page cache /
/// backing file — contents are never lost, only residency.
void DropPages(mm::MmWorkload* w) {
  for (mm::Segment& seg : w->r_segs) {
    (void)seg.Advise(mm::AccessIntent::kDontNeed);
  }
  for (mm::Segment& seg : w->s_segs) {
    (void)seg.Advise(mm::AccessIntent::kDontNeed);
  }
}

struct CellScore {
  double regret = 0;
  bool ok = false;
};

/// Training pass over one cell: two auto runs, nothing scored. Each run
/// Observe()s its predicted-vs-actual pair into the controller — by the
/// time the scored pass reaches this shape, the per-driver EWMA
/// correction has converged the way it would for a service that has been
/// answering queries for a while. The scored pass measures the planner
/// users actually get, not its first-ever query.
void TrainCell(mm::SegmentManager* mgr, const Cell& cell,
               uint32_t partitions, opt::AdaptiveController* controller) {
  rel::RelationConfig rc;
  rc.r_objects = cell.r;
  rc.s_objects = cell.s;
  rc.num_partitions = partitions;
  rc.zipf_theta = cell.theta;
  (void)mm::DeleteMmWorkload(mgr, "pr", partitions);
  auto workload = mm::BuildMmWorkload(mgr, "pr", rc);
  if (!workload.ok()) return;
  // Run until the pick stops changing (min 2 runs, capped): a mispredicted
  // driver has to be picked once before its EWMA correction punishes it,
  // so a fixed run count can leave unexplored arms that then eat a bad
  // pick during scoring.
  join::Algorithm last = join::Algorithm::kNestedLoops;
  for (int rep = 0; rep < 6; ++rep) {
    if (cell.cold) DropPages(&*workload);
    mm::MmJoinOptions opt;  // algorithm unset: the planner picks
    opt.planner = controller;
    auto result = mm::MmJoin(*workload, opt);
    if (!result.ok()) break;
    if (rep > 0 && result->algorithm == last) break;
    last = result->algorithm;
  }
  workload->r_segs.clear();
  workload->s_segs.clear();
  (void)mm::DeleteMmWorkload(mgr, "pr", partitions);
}

/// One grid cell: measure all six drivers, let auto pick, score the pick.
CellScore RunCell(mm::SegmentManager* mgr, const Cell& cell,
                  uint32_t partitions, int reps,
                  opt::AdaptiveController* controller) {
  CellScore score;
  rel::RelationConfig rc;
  rc.r_objects = cell.r;
  rc.s_objects = cell.s;
  rc.num_partitions = partitions;
  rc.zipf_theta = cell.theta;
  (void)mm::DeleteMmWorkload(mgr, "pr", partitions);
  auto workload = mm::BuildMmWorkload(mgr, "pr", rc);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return score;
  }

  // Explicit ground truth: best-of-reps per driver, reps interleaved
  // (rep-outer, driver-inner) like the scatter table.
  std::optional<mm::MmJoinResult> best[kNumDrivers];
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t d = 0; d < kNumDrivers; ++d) {
      if (cell.cold) DropPages(&*workload);
      mm::MmJoinOptions opt;
      opt.algorithm = kDrivers[d].algorithm;
      auto r = mm::MmJoin(*workload, opt);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", kDrivers[d].name,
                     r.status().ToString().c_str());
        return score;
      }
      if (!best[d] || r->wall_ms < best[d]->wall_ms) best[d] = std::move(*r);
    }
  }
  // The identity is unconditional: six different paths to the same join.
  for (size_t d = 0; d < kNumDrivers; ++d) {
    best[d]->ExportMetrics(&bench::Metrics());
    const bool same = best[d]->verified &&
                      best[d]->output_count == best[0]->output_count &&
                      best[d]->output_checksum == best[0]->output_checksum;
    if (!same) {
      std::fprintf(stderr,
                   "planner cell r=%llu s=%llu: %s disagrees with %s — "
                   "this is a bug\n",
                   static_cast<unsigned long long>(cell.r),
                   static_cast<unsigned long long>(cell.s), kDrivers[d].name,
                   kDrivers[0].name);
      return score;
    }
  }

  // One untimed warm-up auto run trains the EWMA correction on this cell
  // shape, then the scored pick takes the best of `reps`. Every auto run
  // Observe()s its predicted-vs-actual pair — the closed loop under test.
  std::optional<mm::MmJoinResult> auto_best;
  for (int rep = 0; rep < reps + 1; ++rep) {
    if (cell.cold) DropPages(&*workload);
    mm::MmJoinOptions opt;  // algorithm unset: the planner picks
    opt.planner = controller;
    auto r = mm::MmJoin(*workload, opt);
    if (!r.ok()) {
      std::fprintf(stderr, "auto: %s\n", r.status().ToString().c_str());
      return score;
    }
    if (rep == 0) continue;  // warm-up: train, don't score
    if (!auto_best || r->wall_ms < auto_best->wall_ms) {
      auto_best = std::move(*r);
    }
  }
  auto_best->ExportMetrics(&bench::Metrics());

  // The auto run must match the explicit drivers bit for bit.
  const bool same = auto_best->verified && auto_best->auto_selected &&
                    auto_best->output_count == best[0]->output_count &&
                    auto_best->output_checksum == best[0]->output_checksum;
  size_t pick = kNumDrivers, fastest = 0;
  for (size_t d = 0; d < kNumDrivers; ++d) {
    if (kDrivers[d].algorithm == auto_best->algorithm) pick = d;
    if (best[d]->wall_ms < best[fastest]->wall_ms) fastest = d;
  }
  if (pick == kNumDrivers || !same) {
    std::fprintf(stderr,
                 "planner cell r=%llu s=%llu: auto pick %s invalid or "
                 "output mismatch — this is a bug\n",
                 static_cast<unsigned long long>(cell.r),
                 static_cast<unsigned long long>(cell.s),
                 join::AlgorithmName(auto_best->algorithm));
    return score;
  }

  score.regret = best[fastest]->wall_ms > 0
                     ? best[pick]->wall_ms / best[fastest]->wall_ms
                     : 1.0;
  score.ok = true;
  bench::Metrics()
      .counter(std::string("planner.picks.") + kDrivers[pick].name)
      .Inc();
  std::printf("%llu\t%llu\t%.1f\t%s\t%s\t%.2f\t%s\t%.2f\t%.3f\t%+.1f\t%s\n",
              static_cast<unsigned long long>(cell.r),
              static_cast<unsigned long long>(cell.s), cell.theta,
              cell.cold ? "cold" : "warm", kDrivers[pick].name,
              best[pick]->wall_ms, kDrivers[fastest].name,
              best[fastest]->wall_ms, score.regret,
              auto_best->run.model_error_pct, same ? "yes" : "NO");

  workload->r_segs.clear();
  workload->s_segs.clear();
  (void)mm::DeleteMmWorkload(mgr, "pr", partitions);
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (cli::IsFlagLike(argv[a])) {
      cli::UnknownFlag("planner_regret", argv[a], kUsage);
    }
  }
  if (argc > 4) cli::UnknownFlag("planner_regret", argv[4], kUsage);
  const uint64_t objects =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (1ull << 16);
  const uint32_t partitions =
      argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 8;
  std::string dir = argc > 3
                        ? argv[3]
                        : "/tmp/mmjoin_planner_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  mm::SegmentManager mgr(dir);

  const char* reps_env = std::getenv("MMJOIN_PLANNER_REPS");
  const int reps =
      reps_env ? std::max(1, static_cast<int>(std::strtol(reps_env, nullptr,
                                                          10)))
               : 2;
  const char* assert_env = std::getenv("MMJOIN_PLANNER_ASSERT");
  const bool gate = assert_env && assert_env[0] == '1';
  const char* cal_env = std::getenv("MMJOIN_PLANNER_CAL");

  // Measured calibration — the planner scores with THIS machine's probe
  // numbers, which is the whole point of the regret gate. A path from
  // MMJOIN_PLANNER_CAL persists the learned corrections across runs.
  opt::AdaptiveController controller(cal_env ? cal_env : "",
                                     opt::MeasureCalibration());
  const opt::Calibration cal = controller.snapshot();

  const exec::NumaTopology topo = exec::QueryNumaTopology();
  std::printf("# planner regret: grid over size x skew x selectivity x "
              "residency, D=%u, best of %d\n",
              partitions, reps);
  std::printf("# topology: %s\n", exec::NumaTopologySummary(topo).c_str());
  std::printf("# calibration: %s (seq %.3f ns/B, scatter %.3f ns/B, "
              "sort %.2f ns/cmp, fault %.2f us/page)\n",
              controller.loaded_from_file() ? "loaded" : "measured",
              cal.machine.seq_ns_per_byte, cal.machine.scatter_ns_per_byte,
              cal.machine.sort_ns_per_cmp, cal.machine.fault_us_per_page);
  std::printf("r\ts\ttheta\tresidency\tpick\tpick_ms\tbest\tbest_ms\t"
              "regret\tmodel_err_pct\tsame_join\n");

  // The grid: two sizes x two skews x two |S|/|R| ratios x two residency
  // states = 16 cells. Selective cells (|S| = |R|/8) are index-NL's
  // classic sweet spot; cold cells move the fault term from "free" to
  // real; the Zipf cells stress the skew factor in the sort/probe terms.
  const uint64_t small = std::max<uint64_t>(objects / 8, 4096);
  std::vector<Cell> cells;
  for (uint64_t r : {small, objects}) {
    for (double theta : {0.0, 1.1}) {
      for (uint64_t s : {r, std::max<uint64_t>(r / 8, 1024)}) {
        for (bool cold : {false, true}) {
          cells.push_back(Cell{r, s, theta, cold});
        }
      }
    }
  }

  // Train first, score second: the regret gate grades the planner a
  // service user would see after the EWMA loop has run for a while, not
  // the cold-start picks of its very first queries. Two passes: a
  // correction learned in a later cell can flip an earlier cell's pick,
  // and the second pass settles those before anything is scored.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Cell& cell : cells) {
      TrainCell(&mgr, cell, partitions, &controller);
    }
  }
  std::printf("# trained: %llu observations before scoring\n",
              static_cast<unsigned long long>(controller.observations()));

  int rc = 0;
  double log_sum = 0, max_regret = 0;
  uint64_t scored = 0;
  for (const Cell& cell : cells) {
    const CellScore s = RunCell(&mgr, cell, partitions, reps, &controller);
    if (!s.ok) {
      rc = 1;
      break;
    }
    log_sum += std::log(s.regret);
    max_regret = std::max(max_regret, s.regret);
    ++scored;
  }

  if (rc == 0 && scored > 0) {
    const double geomean = std::exp(log_sum / static_cast<double>(scored));
    std::printf("# regret: geomean %.3fx, max %.3fx over %llu cells "
                "(%llu observations folded into the EWMA)\n",
                geomean, max_regret,
                static_cast<unsigned long long>(scored),
                static_cast<unsigned long long>(controller.observations()));
    bench::Metrics().counter("planner.cells").Inc(scored);
    bench::Metrics()
        .counter("planner.regret_geomean_x1000")
        .Inc(static_cast<uint64_t>(geomean * 1000));
    bench::Metrics()
        .counter("planner.regret_max_x1000")
        .Inc(static_cast<uint64_t>(max_regret * 1000));
    bench::Metrics()
        .counter("planner.observations")
        .Inc(controller.observations());
    if (gate) {
      if (geomean > 1.10 || max_regret > 1.5) {
        std::fprintf(stderr,
                     "planner gate FAILED: geomean %.3fx (need <= 1.10) "
                     "max %.3fx (need <= 1.5)\n",
                     geomean, max_regret);
        rc = 1;
      } else {
        std::printf("# planner gate passed: geomean %.3fx <= 1.10, "
                    "max %.3fx <= 1.5\n",
                    geomean, max_regret);
      }
    }
  }

  bench::WriteMetricsJson("planner_regret");
  if (argc <= 3) ::rmdir(dir.c_str());
  return rc;
}
