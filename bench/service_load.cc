// service_load: open-loop load driver for mmjoind's service path.
//
// Starts an in-process svc::Server on a real unix-domain socket, registers
// three size classes of relation — small (objects/8, uniform), medium
// (objects/2, Zipf) and large (objects, Zipf) — then runs three phases
// over real client connections:
//
//   1. serial baseline — every (relation x algorithm) combination once,
//      alone, recording count/checksum as the identity reference and the
//      mean exec time as the arrival-rate calibration;
//   2. concurrency burst — every client fires the same heavy combination
//      simultaneously for a few rounds, proving the shared pool genuinely
//      overlaps queries (svc.inflight_peak must reach max-inflight);
//   3. open-loop load — arrivals on a fixed global schedule (open loop:
//      the schedule never waits for completions, so queueing shows up as
//      latency, exactly like an outside workload would see it), cycling
//      combinations, size classes, and priority classes across `clients`
//      connections. The MIX is the point: small queries ride the same
//      admission queue and worker pool as large ones, and the per-class
//      p50/p99 table shows what that costs them.
//
// EVERY query result is checked against the serial baseline's
// count/checksum for its combination — byte-identical or the bench exits
// 1. That check is unconditional; only the concurrency assertion is
// env-gated (smoke scale is too fast to queue reliably).
//
//   service_load [objects] [seconds] [clients]
//
// Defaults: 65536 objects per relation side, 10 s of open-loop load,
// 8 client connections. Env knobs:
//   MMJOIN_SERVICE_WORKERS       shared-pool worker threads     [4]
//   MMJOIN_SERVICE_MAX_INFLIGHT  admission concurrency          [4]
//   MMJOIN_SERVICE_RATE          open-loop arrival rate, qps    [auto]
//       (auto = 80% of the serial-baseline throughput)
//   MMJOIN_SERVICE_ASSERT        require svc.inflight_peak >= N [off]
//
// Output: a TSV summary plus service_load.metrics.json (bench_common
// shape). The per-query server-reported exec times land in the
// `join.elapsed_ms` histogram so tools/metrics_validate's baseline diff
// (histogram min vs committed BENCH_service.json) gates gross
// regressions of the service path end to end.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "mmap/segment_manager.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/cli.h"

namespace {

using namespace mmjoin;
using Clock = std::chrono::steady_clock;

constexpr char kUsage[] =
    "usage: service_load [objects] [seconds] [clients]\n"
    "  objects   large-class objects per side       [65536]\n"
    "            (medium = objects/2, small = objects/8, floor 1024)\n"
    "  seconds   open-loop load duration            [10]\n"
    "  clients   concurrent client connections      [8]\n"
    "env: MMJOIN_SERVICE_WORKERS, MMJOIN_SERVICE_MAX_INFLIGHT,\n"
    "     MMJOIN_SERVICE_RATE (qps), MMJOIN_SERVICE_ASSERT (min peak)\n";

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtod(v, nullptr);
}

/// One (relation x algorithm) combination plus its serial reference.
struct Combo {
  std::string relation;
  size_t size_class = 0;  ///< index into kClasses
  join::Algorithm algorithm;
  uint64_t count = 0;
  uint64_t checksum = 0;
};

/// The size-class mix: relation names double as class labels. Objects per
/// side = `objects` scaled by `divisor`; the small class stays uniform
/// (it models the cheap interactive query), the bigger two are skewed.
struct SizeClass {
  const char* name;
  uint64_t divisor;
  double theta;
};
constexpr SizeClass kClasses[] = {
    {"small", 8, 0.0},
    {"medium", 2, 1.1},
    {"large", 1, 1.1},
};
constexpr size_t kNumClasses = std::size(kClasses);

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

svc::Request QueryRequest(const Combo& combo, exec::QueryPriority prio,
                          uint64_t id) {
  svc::Request req;
  req.op = svc::RequestOp::kQuery;
  req.id = id;
  req.name = combo.relation;
  req.algorithm = combo.algorithm;
  req.priority = prio;
  return req;
}

/// Aborts the whole bench on a count/checksum mismatch — the service MUST
/// return byte-identical results no matter how queries interleave.
void CheckIdentity(const Combo& combo, const svc::Response& resp) {
  if (resp.op == svc::ResponseOp::kResult && resp.verified &&
      resp.count == combo.count && resp.checksum == combo.checksum) {
    return;
  }
  std::fprintf(stderr,
               "service_load: IDENTITY MISMATCH on %s/%s: got op=%s "
               "count=%llu checksum=0x%016llx verified=%d, want count=%llu "
               "checksum=0x%016llx\n",
               combo.relation.c_str(), join::AlgorithmName(combo.algorithm),
               svc::ResponseOpName(resp.op),
               static_cast<unsigned long long>(resp.count),
               static_cast<unsigned long long>(resp.checksum),
               resp.verified ? 1 : 0,
               static_cast<unsigned long long>(combo.count),
               static_cast<unsigned long long>(combo.checksum));
  std::exit(1);
}

uint64_t FindStat(const std::vector<svc::StatEntry>& stats,
                  const std::string& name) {
  for (const svc::StatEntry& e : stats) {
    if (e.name == name) return e.value;
  }
  return 0;
}

struct LoadSample {
  double latency_ms = 0;  ///< completion - scheduled arrival (open loop)
  double exec_ms = 0;
  double queue_ms = 0;
  size_t size_class = 0;  ///< index into kClasses
};

/// p-th percentile of a sorted vector (nearest-rank on the closed index).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t i = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[i];
}

}  // namespace

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (cli::IsFlagLike(argv[a])) {
      cli::UnknownFlag("service_load", argv[a], kUsage);
    }
  }
  if (argc > 4) cli::UnknownFlag("service_load", argv[argc - 1], kUsage);
  const uint64_t objects =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 65536;
  const double seconds = argc > 2 ? std::strtod(argv[2], nullptr) : 10.0;
  const uint32_t clients = static_cast<uint32_t>(
      argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 8);
  if (objects == 0 || seconds <= 0 || clients == 0) {
    cli::BadFlagValue("service_load", "sizes", kUsage);
  }

  svc::ServerOptions options;
  const std::string root =
      "/tmp/service_load_" + std::to_string(::getpid());
  ::mkdir(root.c_str(), 0755);
  const std::string seg_dir = root + "/segments";
  ::mkdir(seg_dir.c_str(), 0755);
  // Both directories go at every exit, after the server (declared below,
  // so destroyed first) has removed its socket and the relations' segments.
  struct RemoveDirs {
    const std::string& root;
    const std::string& seg_dir;
    ~RemoveDirs() {
      ::rmdir(seg_dir.c_str());
      ::rmdir(root.c_str());
    }
  } remove_dirs{root, seg_dir};
  options.socket_path = root + "/svc.sock";
  options.workers =
      static_cast<uint32_t>(EnvU64("MMJOIN_SERVICE_WORKERS", 4));
  options.admission.max_inflight =
      static_cast<uint32_t>(EnvU64("MMJOIN_SERVICE_MAX_INFLIGHT", 4));
  options.admission.queue_limit = 64;
  options.drain_timeout_s = 60;

  mm::SegmentManager manager(seg_dir);
  svc::Server server(&manager, options);
  {
    const Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "service_load: start: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // Registration + baseline over a plain client connection, exactly as an
  // external operator would drive it.
  svc::Client admin;
  if (Status st = admin.Connect(options.socket_path); !st.ok()) {
    std::fprintf(stderr, "service_load: connect: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  if (Status st = admin.Handshake(); !st.ok()) {
    std::fprintf(stderr, "service_load: handshake: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  for (const SizeClass& cls : kClasses) {
    svc::Request req;
    req.op = svc::RequestOp::kRegister;
    req.name = cls.name;
    req.r_objects = std::max<uint64_t>(objects / cls.divisor, 1024);
    req.s_objects = req.r_objects * 2;
    req.partitions = 8;
    req.zipf_theta = cls.theta;
    req.seed = 42;
    auto resp = admin.Call(req);
    if (!resp.ok() || resp->op != svc::ResponseOp::kRegistered) {
      std::fprintf(stderr, "service_load: register %s failed: %s\n",
                   cls.name,
                   resp.ok() ? resp->message.c_str()
                             : resp.status().ToString().c_str());
      return 1;
    }
  }

  // Phase 1: serial baseline. Two runs per combination — the first warms
  // the mapping, the second is the reference timing.
  std::vector<Combo> combos;
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    for (join::Algorithm a :
         {join::Algorithm::kNestedLoops, join::Algorithm::kSortMerge,
          join::Algorithm::kGrace, join::Algorithm::kHybridHash}) {
      combos.push_back(Combo{kClasses[cls].name, cls, a, 0, 0});
    }
  }
  double serial_exec_sum_ms = 0;
  std::printf("# serial baseline (%llu objects/side, workers=%u)\n",
              static_cast<unsigned long long>(objects), options.workers);
  std::printf("relation\talgorithm\tcount\tchecksum\texec_ms\n");
  for (Combo& combo : combos) {
    svc::Response last;
    for (int rep = 0; rep < 2; ++rep) {
      auto resp =
          admin.Call(QueryRequest(combo, exec::QueryPriority::kNormal, 0));
      if (!resp.ok() || resp->op != svc::ResponseOp::kResult ||
          !resp->verified) {
        std::fprintf(stderr, "service_load: baseline %s/%s failed\n",
                     combo.relation.c_str(),
                     join::AlgorithmName(combo.algorithm));
        return 1;
      }
      if (rep > 0 && (resp->count != last.count ||
                      resp->checksum != last.checksum)) {
        std::fprintf(stderr,
                     "service_load: baseline %s/%s not repeatable\n",
                     combo.relation.c_str(),
                     join::AlgorithmName(combo.algorithm));
        return 1;
      }
      last = *resp;
    }
    combo.count = last.count;
    combo.checksum = last.checksum;
    serial_exec_sum_ms += last.exec_ms;
    bench::Metrics().histogram("join.elapsed_ms").Record(last.exec_ms);
    std::printf("%s\t%s\t%llu\t0x%016llx\t%.2f\n", combo.relation.c_str(),
                join::AlgorithmName(combo.algorithm),
                static_cast<unsigned long long>(combo.count),
                static_cast<unsigned long long>(combo.checksum),
                last.exec_ms);
  }
  const double serial_mean_ms = serial_exec_sum_ms / combos.size();

  // Phase 2: concurrency burst. All clients fire the heaviest combination
  // at once, several rounds; with more clients than admission slots the
  // pool provably runs max-inflight queries at the same time.
  // Pick by measured time (it is usually grace or sort-merge on the Zipf
  // relation) so scale changes keep the burst meaningful.
  Combo heaviest = combos.front();
  {
    double slowest = -1;
    for (const Combo& combo : combos) {
      auto resp =
          admin.Call(QueryRequest(combo, exec::QueryPriority::kNormal, 0));
      if (resp.ok() && resp->op == svc::ResponseOp::kResult &&
          resp->exec_ms > slowest) {
        slowest = resp->exec_ms;
        heaviest = combo;
      }
    }
  }
  const int kBurstRounds = 3;
  std::atomic<uint64_t> burst_completed{0};
  {
    std::vector<std::thread> threads;
    std::atomic<uint32_t> ready{0};
    std::atomic<bool> go{false};
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        svc::Client client;
        if (!client.Connect(options.socket_path).ok() ||
            !client.Handshake().ok()) {
          std::fprintf(stderr, "service_load: burst client %u connect\n", c);
          std::exit(1);
        }
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int round = 0; round < kBurstRounds; ++round) {
          auto resp = client.Call(
              QueryRequest(heaviest, exec::QueryPriority::kNormal, 0));
          if (!resp.ok()) std::exit(1);
          if (resp->op == svc::ResponseOp::kError &&
              resp->error == svc::ErrorCode::kOverloaded) {
            continue;  // queue overflow is legal under a full burst
          }
          CheckIdentity(heaviest, *resp);
          burst_completed.fetch_add(1);
        }
      });
    }
    while (ready.load() < clients) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
  }

  // Phase 3: open-loop load. One global arrival schedule shared by all
  // clients: arrival k happens at t0 + k*interval whether or not earlier
  // queries finished (that is what makes it open loop — backlog shows up
  // as latency, never as a slower schedule).
  const double rate_qps = EnvDouble("MMJOIN_SERVICE_RATE", 0);
  const double interval_ms =
      rate_qps > 0 ? 1000.0 / rate_qps : serial_mean_ms * 1.25;
  std::atomic<uint64_t> next_arrival{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::vector<LoadSample>> per_client(clients);
  const Clock::time_point t0 = Clock::now();
  const double t_end_ms = seconds * 1000.0;
  {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        svc::Client client;
        if (!client.Connect(options.socket_path).ok() ||
            !client.Handshake().ok()) {
          std::fprintf(stderr, "service_load: load client %u connect\n", c);
          std::exit(1);
        }
        for (;;) {
          const uint64_t k = next_arrival.fetch_add(1);
          const double arrival_ms = static_cast<double>(k) * interval_ms;
          if (arrival_ms >= t_end_ms) return;
          for (;;) {
            const double now = MsSince(t0);
            if (now >= arrival_ms) break;
            std::this_thread::sleep_for(std::chrono::duration<double,
                std::milli>(std::min(arrival_ms - now, 5.0)));
          }
          const Combo& combo = combos[k % combos.size()];
          const auto prio = static_cast<exec::QueryPriority>(k % 3);
          auto resp = client.Call(QueryRequest(combo, prio, 0));
          if (!resp.ok()) std::exit(1);
          if (resp->op == svc::ResponseOp::kError) {
            if (resp->error == svc::ErrorCode::kOverloaded) {
              rejected.fetch_add(1);
              continue;
            }
            std::fprintf(stderr, "service_load: load error: %s\n",
                         resp->message.c_str());
            std::exit(1);
          }
          CheckIdentity(combo, *resp);
          LoadSample s;
          s.latency_ms = MsSince(t0) - arrival_ms;
          s.exec_ms = resp->exec_ms;
          s.queue_ms = resp->queue_ms;
          s.size_class = combo.size_class;
          per_client[c].push_back(s);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double elapsed_s = MsSince(t0) / 1000.0;

  // Collect server-side counters before shutting down.
  std::vector<svc::StatEntry> stats;
  {
    svc::Request req;
    req.op = svc::RequestOp::kStats;
    auto resp = admin.Call(req);
    if (resp.ok() && resp->op == svc::ResponseOp::kStats) {
      stats = resp->stats;
    }
  }
  admin.Close();
  server.BeginDrain();
  server.Drain();
  server.Stop();

  std::vector<LoadSample> samples;
  for (const auto& v : per_client) {
    samples.insert(samples.end(), v.begin(), v.end());
  }
  if (samples.empty()) {
    std::fprintf(stderr, "service_load: no queries completed\n");
    return 1;
  }
  std::vector<double> latencies;
  std::vector<std::vector<double>> class_latencies(kNumClasses);
  latencies.reserve(samples.size());
  for (const LoadSample& s : samples) {
    latencies.push_back(s.latency_ms);
    class_latencies[s.size_class].push_back(s.latency_ms);
    bench::Metrics().histogram("join.elapsed_ms").Record(s.exec_ms);
    bench::Metrics().histogram("svc_load.latency_ms").Record(s.latency_ms);
    bench::Metrics().histogram("svc_load.queue_ms").Record(s.queue_ms);
    bench::Metrics()
        .histogram(std::string("svc_load.latency_ms.") +
                   kClasses[s.size_class].name)
        .Record(s.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  for (auto& v : class_latencies) std::sort(v.begin(), v.end());
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  const double qps = static_cast<double>(samples.size()) / elapsed_s;
  const uint64_t peak = FindStat(stats, "svc.inflight_peak");

  std::printf("\n# open-loop load: %u clients, interval %.2f ms "
              "(%s), %.1f s\n",
              clients, interval_ms,
              rate_qps > 0 ? "MMJOIN_SERVICE_RATE" : "auto 80% of serial",
              elapsed_s);
  std::printf("qps\tp50_ms\tp99_ms\tcompleted\trejected\tpeak_inflight\n");
  std::printf("%.1f\t%.2f\t%.2f\t%zu\t%llu\t%llu\n", qps, p50, p99,
              samples.size(),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(peak));
  // Per-size-class latency: the mixed-size run's real deliverable — how
  // much the small queries pay for sharing the pool with the large ones.
  std::printf("\nclass\tobjects\tcompleted\tp50_ms\tp99_ms\n");
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    const std::vector<double>& v = class_latencies[cls];
    std::printf("%s\t%llu\t%zu\t%.2f\t%.2f\n", kClasses[cls].name,
                static_cast<unsigned long long>(
                    std::max<uint64_t>(objects / kClasses[cls].divisor,
                                       1024)),
                v.size(), Percentile(v, 0.50), Percentile(v, 0.99));
  }
  std::printf("burst: %llu/%u completed identical on %s/%s\n",
              static_cast<unsigned long long>(burst_completed.load()),
              clients * kBurstRounds, heaviest.relation.c_str(),
              join::AlgorithmName(heaviest.algorithm));

  obs::MetricsRegistry& m = bench::Metrics();
  m.counter("svc_load.queries.completed").Inc(samples.size());
  m.counter("svc_load.queries.rejected").Inc(rejected.load());
  m.counter("svc_load.burst.completed").Inc(burst_completed.load());
  m.counter("svc_load.qps_x1000")
      .Inc(static_cast<uint64_t>(qps * 1000.0));
  m.counter("svc_load.p50_us").Inc(static_cast<uint64_t>(p50 * 1000.0));
  m.counter("svc_load.p99_us").Inc(static_cast<uint64_t>(p99 * 1000.0));
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    const std::string prefix = std::string("svc_load.") + kClasses[cls].name;
    m.counter(prefix + ".completed").Inc(class_latencies[cls].size());
    m.counter(prefix + ".p50_us")
        .Inc(static_cast<uint64_t>(Percentile(class_latencies[cls], 0.50) *
                                   1000.0));
    m.counter(prefix + ".p99_us")
        .Inc(static_cast<uint64_t>(Percentile(class_latencies[cls], 0.99) *
                                   1000.0));
  }
  m.counter("svc_load.peak_inflight").Inc(peak);
  m.counter("svc_load.clients").Inc(clients);
  m.counter("svc_load.workers").Inc(options.workers);
  m.counter("svc_load.server.admitted")
      .Inc(FindStat(stats, "svc.queries.admitted"));
  m.counter("svc_load.server.completed")
      .Inc(FindStat(stats, "svc.queries.completed"));
  m.counter("svc_load.server.rejected")
      .Inc(FindStat(stats, "svc.queries.rejected"));
  m.counter("svc_load.server.failed")
      .Inc(FindStat(stats, "svc.queries.failed"));
  bench::WriteMetricsJson("service_load");

  const uint64_t want_peak = EnvU64("MMJOIN_SERVICE_ASSERT", 0);
  if (want_peak > 0 && peak < want_peak) {
    std::fprintf(stderr,
                 "service_load: ASSERT failed: svc.inflight_peak %llu < "
                 "required %llu (MMJOIN_SERVICE_ASSERT)\n",
                 static_cast<unsigned long long>(peak),
                 static_cast<unsigned long long>(want_peak));
    return 1;
  }
  std::printf("service_load: OK (%zu identical results)\n",
              samples.size() + burst_completed.load());
  return 0;
}
