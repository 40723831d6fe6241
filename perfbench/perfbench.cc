// perfbench: the measuring half of the mmjoin benchmark. perfbench/run.py
// builds it, runs it in an empty scratch directory, and turns the raw
// samples it prints into the reported metrics.
//
//   perfbench --workload=NAME --seed=N --seconds=S --mmjoind=PATH
//             [--trace-file=PATH]
//
// A workload is a set of relation pairs. One run has a set-up part and
// three measured phases, one per way mmjoin is used:
//
//   set-up    (repeated kSetupReps times, the last one is kept)
//             build every pair into mapped segments, persist each as a
//             durable store, start an mmjoind process with its default
//             shape and register every pair with it;
//   embedded  closed loop of in-process mm::MmJoin calls with default
//             options, cycling every (pair, driver) combination;
//   service   kClients closed-loop client connections to that mmjoind,
//             each cycling the (pair, driver) combinations and the three
//             priorities;
//   store     closed loop of warm restarts: attach a persisted pair
//             (every checksum verified), then a warm index probe.
//
// Every join result — in-process, from the daemon, from the store — must
// be oracle-verified and equal the count/checksum the generator predicted;
// any other outcome counts as failed.
//
// Output: one JSON object on stdout holding the raw per-operation samples,
// each tagged with its pair. With --trace-file, spans around every call
// into a layer are also written there as Chrome trace-event JSON.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/protocol.h"

extern char** environ;

namespace {

using namespace mmjoin;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 9;
/// service_load's default: 8 client connections against the daemon's
/// default admission (4 in flight, queue depth 16), so queries also wait.
constexpr uint32_t kClients = 8;
/// Rounds of unrecorded (but checked) operations before measuring: the
/// first calls of a process pay one-time costs — allocator growth, first
/// touches of the relations — that a long-lived caller pays once.
constexpr size_t kWarmupRounds = 1;
/// The measured time is cut into slices, each running the three phases
/// for these shares of it, so that every phase samples the machine across
/// the whole run.
constexpr int kSlices = 4;
constexpr double kEmbeddedShare = 0.45;
constexpr double kServiceShare = 0.4;
constexpr double kStoreShare = 0.15;

/// One relation pair of a workload. Objects are 128 bytes.
struct PairSpec {
  const char* name;
  uint64_t r_objects;
  uint64_t s_objects;
  uint32_t partitions;
  double zipf_theta;
};
struct WorkloadSpec {
  const char* name;
  std::vector<PairSpec> pairs;
};
/// `reference` is the configuration ROADMAP.md measures at: 1,048,576
/// objects per side, D=8, uniform (128 MiB per side; with the temporaries
/// a join touches more than the host's LLC). `mix` is bench/service_load's
/// default traffic: three size classes of N=65536 — small N/8 uniform,
/// medium N/2 and large N with Zipf 1.1 — each with |S| = 2|R| and D=8.
const WorkloadSpec kWorkloads[] = {
    {"reference", {{"reference", 1048576, 1048576, 8, 0.0}}},
    {"mix",
     {{"small", 8192, 16384, 8, 0.0},
      {"medium", 32768, 65536, 8, 1.1},
      {"large", 65536, 131072, 8, 1.1}}},
};

struct Driver {
  join::Algorithm algorithm;
  mm::MmAlgorithm mm;
};
constexpr Driver kDrivers[] = {
    {join::Algorithm::kNestedLoops, mm::MmAlgorithm::kNestedLoops},
    {join::Algorithm::kSortMerge, mm::MmAlgorithm::kSortMerge},
    {join::Algorithm::kMpsm, mm::MmAlgorithm::kMpsm},
    {join::Algorithm::kGrace, mm::MmAlgorithm::kGrace},
    {join::Algorithm::kHybridHash, mm::MmAlgorithm::kHybridHash},
    {join::Algorithm::kIndexNestedLoops, mm::MmAlgorithm::kIndexNestedLoops},
};
constexpr size_t kNumDrivers = std::size(kDrivers);

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

/// Spans around the calls into each layer, kept in memory and written at
/// the end of the run. Disabled (every call a no-op) without --trace-file.
class Spans {
 public:
  Spans(bool enabled, Clock::time_point t0) : enabled_(enabled), t0_(t0) {}

  void Add(uint32_t track, uint32_t lane, const std::string& name,
           const char* layer, Clock::time_point start, double dur_ms) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    trace_.Complete(track, lane, name, layer, Ms(t0_, start), dur_ms);
  }
  /// The driver's pass marks as child spans of a join starting at `start`.
  void AddPasses(uint32_t track, uint32_t lane, const char* layer,
                 Clock::time_point start,
                 const std::vector<join::PassMark>& passes) {
    if (!enabled_) return;
    double offset = 0;
    for (const join::PassMark& p : passes) {
      Add(track, lane, p.label, layer,
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(offset)),
          p.elapsed_ms);
      offset += p.elapsed_ms;
    }
  }
  void Write(const std::string& path) {
    if (!enabled_) return;
    trace_.SetProcessName(1, "set-up");
    trace_.SetProcessName(2, "embedded");
    trace_.SetProcessName(3, "service clients");
    trace_.SetProcessName(4, "store");
    const Status st = trace_.WriteFile(path);
    if (!st.ok()) Die("trace: " + st.ToString());
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::mutex mu_;
  obs::TraceRecorder trace_;
};

/// One mmjoind child process. Stop() asks it to drain over the protocol
/// and waits for it to exit, killing it if it does not within 20 s.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `exe` serving `socket` with segments under `dir`, and returns
  /// once a client handshake succeeds.
  Status Start(const std::string& exe, const std::string& dir,
               const std::string& socket) {
    socket_ = socket;
    std::vector<std::string> args = {exe, "--socket=" + socket,
                                     "--dir=" + dir};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The daemon's own log lines go to stderr: stdout carries only the
    // benchmark's result.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return Status::IOError("spawn " + exe + ": " + std::strerror(rc));
    }
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::IOError("mmjoind exited during start-up");
      }
      svc::Client probe;
      if (probe.Connect(socket_).ok()) return probe.Handshake();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return Status::IOError("mmjoind did not come up within 20 s");
  }

  void Stop() {
    if (pid_ < 0) return;
    svc::Client client;
    if (client.Connect(socket_).ok()) {
      svc::Request req;
      req.op = svc::RequestOp::kShutdown;
      (void)client.Call(req);
    }
    client.Close();
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, WNOHANG) == 0) {
      if (Clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &wstatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

struct SetupSample {
  double build_ms = 0;         ///< generate the pairs into mapped segments
  double persist_ms = 0;       ///< index bulk build + seal as durable stores
  double daemon_start_ms = 0;  ///< spawn mmjoind until a handshake succeeds
  double register_ms = 0;      ///< daemon builds and maps its own copies
};

/// How long a phase runs: until `deadline` or after `ops` operations.
struct Budget {
  Clock::time_point deadline = Clock::time_point::max();
  size_t ops = SIZE_MAX;

  bool Left(size_t done) const { return done < ops && Clock::now() < deadline; }
};

struct JoinSample {
  size_t pair = 0;    ///< index into the workload's pairs
  size_t driver = 0;  ///< index into kDrivers
  double ms = 0;      ///< caller-observed wall time of the call
  uint64_t faults = 0;
  std::vector<join::PassMark> passes;
};

struct ServiceSample {
  size_t pair = 0;
  size_t driver = 0;
  double ms = 0;  ///< client-observed: request written to response parsed
  double queue_ms = 0;
  double exec_ms = 0;
};

struct StoreSample {
  size_t pair = 0;
  double open_ms = 0;   ///< attach the store, every checksum verified
  double probe_ms = 0;  ///< warm index probe, caller-observed
  std::vector<join::PassMark> passes;
};

/// Operation tallies shared by the phases (the service phase's clients
/// update them concurrently).
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  /// Counts one operation; true if its result is the predicted one.
  bool Check(bool ok, uint64_t count, uint64_t checksum,
             const mm::MmWorkload& w, const char* what) {
    attempted.fetch_add(1);
    if (ok && count == w.expected_output_count &&
        checksum == w.expected_checksum) {
      return true;
    }
    failed.fetch_add(1);
    std::fprintf(stderr, "perfbench: wrong or failed result from %s\n", what);
    return false;
  }
};

rel::RelationConfig PairConfig(const PairSpec& pair, uint64_t seed) {
  rel::RelationConfig config;
  config.r_objects = pair.r_objects;
  config.s_objects = pair.s_objects;
  config.num_partitions = pair.partitions;
  config.zipf_theta = pair.zipf_theta;
  config.seed = seed;
  return config;
}

std::vector<mm::MmWorkload> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                  const std::string& mmjoind,
                                  const std::string& dir,
                                  mm::SegmentManager* manager, Daemon* daemon,
                                  SetupSample* sample, Spans* spans) {
  std::vector<mm::MmWorkload> workloads;
  Clock::time_point t = Clock::now();
  for (const PairSpec& pair : spec.pairs) {
    StatusOr<mm::MmWorkload> w =
        mm::BuildMmWorkload(manager, pair.name, PairConfig(pair, seed));
    if (!w.ok()) Die("build: " + w.status().ToString());
    workloads.push_back(std::move(w).value());
  }
  sample->build_ms = Ms(t, Clock::now());
  spans->Add(1, 1, "build", "store", t, sample->build_ms);

  t = Clock::now();
  for (size_t p = 0; p < spec.pairs.size(); ++p) {
    const Status persisted =
        mm::PersistMmWorkload(manager, spec.pairs[p].name, &workloads[p]);
    if (!persisted.ok()) Die("persist: " + persisted.ToString());
  }
  sample->persist_ms = Ms(t, Clock::now());
  spans->Add(1, 1, "persist", "store", t, sample->persist_ms);

  t = Clock::now();
  std::filesystem::create_directories(dir + "/daemon");
  const Status started =
      daemon->Start(mmjoind, dir + "/daemon", dir + "/mmjoind.sock");
  if (!started.ok()) Die("mmjoind: " + started.ToString());
  sample->daemon_start_ms = Ms(t, Clock::now());
  spans->Add(1, 1, "daemon start", "service", t, sample->daemon_start_ms);

  t = Clock::now();
  svc::Client admin;
  if (Status st = admin.Connect(dir + "/mmjoind.sock"); !st.ok()) {
    Die("connect: " + st.ToString());
  }
  for (const PairSpec& pair : spec.pairs) {
    const rel::RelationConfig config = PairConfig(pair, seed);
    svc::Request reg;
    reg.op = svc::RequestOp::kRegister;
    reg.name = pair.name;
    reg.r_objects = config.r_objects;
    reg.s_objects = config.s_objects;
    reg.partitions = config.num_partitions;
    reg.zipf_theta = config.zipf_theta;
    reg.seed = config.seed;
    StatusOr<svc::Response> resp = admin.Call(reg);
    if (!resp.ok() || resp->op != svc::ResponseOp::kRegistered) {
      Die("register: " +
          (resp.ok() ? resp->message : resp.status().ToString()));
    }
  }
  sample->register_ms = Ms(t, Clock::now());
  spans->Add(1, 1, "register", "service", t, sample->register_ms);
  return workloads;
}

/// The phases cycle through their combinations with a cursor that
/// persists across slices, so that every combination is sampled equally.
void RunEmbedded(const std::vector<mm::MmWorkload>& pairs, Budget budget,
                 size_t* cursor, Tally* tally, Spans* spans,
                 std::vector<JoinSample>* out) {
  for (size_t done = 0; budget.Left(done); ++done) {
    const size_t k = (*cursor)++;
    JoinSample s;
    s.driver = k % kNumDrivers;
    s.pair = (k / kNumDrivers) % pairs.size();
    const mm::MmWorkload& w = pairs[s.pair];
    mm::MmJoinOptions options;
    options.algorithm = kDrivers[s.driver].mm;
    const Clock::time_point t = Clock::now();
    StatusOr<mm::MmJoinResult> r = mm::MmJoin(w, options);
    s.ms = Ms(t, Clock::now());
    const char* name = join::AlgorithmName(kDrivers[s.driver].algorithm);
    if (!tally->Check(r.ok() && r->verified, r.ok() ? r->output_count : 0,
                      r.ok() ? r->output_checksum : 0, w, name)) {
      continue;
    }
    s.faults = r->run.faults;
    s.passes = r->run.passes;
    spans->Add(2, 1, name, "join", t, s.ms);
    spans->AddPasses(2, 1, "join", t, s.passes);
    out->push_back(std::move(s));
  }
}

void RunService(const WorkloadSpec& spec,
                const std::vector<mm::MmWorkload>& pairs,
                const std::string& socket, Budget budget,
                std::vector<size_t>* cursors, Tally* tally, Spans* spans,
                std::vector<ServiceSample>* out) {
  const size_t combos = pairs.size() * kNumDrivers;
  std::vector<std::vector<ServiceSample>> per_client(kClients);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      svc::Client client;
      if (!client.Connect(socket).ok() || !client.Handshake().ok()) {
        tally->attempted.fetch_add(1);
        tally->failed.fetch_add(1);
        return;
      }
      for (size_t done = 0; budget.Left(done); ++done) {
        const size_t k = (*cursors)[c]++;
        // Client c starts at combination c, so the clients spread over the
        // pairs and drivers. Priorities rotate as in bench/service_load,
        // shifted once per cycle so that every combination meets all three.
        const size_t combo = (k + c) % combos;
        ServiceSample s;
        s.driver = combo % kNumDrivers;
        s.pair = combo / kNumDrivers;
        svc::Request req;
        req.op = svc::RequestOp::kQuery;
        req.name = spec.pairs[s.pair].name;
        req.algorithm = kDrivers[s.driver].algorithm;
        req.priority =
            static_cast<exec::QueryPriority>((k + c + k / combos) % 3);
        const Clock::time_point t = Clock::now();
        StatusOr<svc::Response> resp = client.Call(req);
        s.ms = Ms(t, Clock::now());
        const bool ok = resp.ok() && resp->op == svc::ResponseOp::kResult &&
                        resp->verified;
        if (!tally->Check(ok, ok ? resp->count : 0, ok ? resp->checksum : 0,
                          pairs[s.pair], "mmjoind")) {
          if (!resp.ok()) return;  // connection lost
          continue;
        }
        s.queue_ms = resp->queue_ms;
        s.exec_ms = resp->exec_ms;
        spans->Add(3, c + 1, join::AlgorithmName(req.algorithm), "service", t,
                   s.ms);
        per_client[c].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per_client) out->insert(out->end(), v.begin(), v.end());
}

void RunStore(const WorkloadSpec& spec, mm::SegmentManager* manager,
              const std::vector<mm::MmWorkload>& built, Budget budget,
              size_t* cursor, Tally* tally, Spans* spans,
              std::vector<StoreSample>* out) {
  for (size_t done = 0; budget.Left(done); ++done) {
    StoreSample s;
    s.pair = (*cursor)++ % built.size();
    const char* name = spec.pairs[s.pair].name;
    const Clock::time_point t = Clock::now();
    StatusOr<mm::MmWorkload> w = mm::OpenMmWorkload(manager, name);
    const Clock::time_point t_open = Clock::now();
    s.open_ms = Ms(t, t_open);
    if (!w.ok()) {
      tally->Check(false, 0, 0, built[s.pair], "store open");
      continue;
    }
    StatusOr<mm::MmJoinResult> r = mm::MmIndexProbe(manager, name, *w);
    s.probe_ms = Ms(t_open, Clock::now());
    if (!tally->Check(r.ok() && r->verified, r.ok() ? r->output_count : 0,
                      r.ok() ? r->output_checksum : 0, built[s.pair],
                      "store probe")) {
      continue;
    }
    s.passes = r->run.passes;
    spans->Add(4, 1, "open", "store", t, s.open_ms);
    spans->Add(4, 1, "index probe", "store", t_open, s.probe_ms);
    spans->AddPasses(4, 1, "store", t_open, s.passes);
    out->push_back(std::move(s));
  }
}

// ---- raw-sample JSON ------------------------------------------------------

void PrintPasses(const std::vector<join::PassMark>& passes) {
  std::printf("{");
  for (size_t i = 0; i < passes.size(); ++i) {
    std::printf("%s\"%s\":%.6f", i ? "," : "", passes[i].label.c_str(),
                passes[i].elapsed_ms);
  }
  std::printf("}");
}

void PrintResult(const WorkloadSpec& spec, const Tally& tally,
                 const std::vector<SetupSample>& setup,
                 const std::vector<JoinSample>& embedded,
                 const std::vector<ServiceSample>& service,
                 const std::vector<StoreSample>& store) {
  std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"setup\":[",
              tally.attempted.load(), tally.failed.load());
  for (size_t i = 0; i < setup.size(); ++i) {
    const SetupSample& s = setup[i];
    std::printf("%s{\"build_ms\":%.6f,\"persist_ms\":%.6f,"
                "\"daemon_start_ms\":%.6f,\"register_ms\":%.6f}",
                i ? "," : "", s.build_ms, s.persist_ms, s.daemon_start_ms,
                s.register_ms);
  }
  std::printf("],\"embedded\":[");
  for (size_t i = 0; i < embedded.size(); ++i) {
    const JoinSample& s = embedded[i];
    std::printf("%s{\"pair\":\"%s\",\"driver\":\"%s\",\"ms\":%.6f,"
                "\"faults\":%" PRIu64 ",\"passes\":",
                i ? "," : "", spec.pairs[s.pair].name,
                join::AlgorithmName(kDrivers[s.driver].algorithm), s.ms,
                s.faults);
    PrintPasses(s.passes);
    std::printf("}");
  }
  std::printf("],\"service\":[");
  for (size_t i = 0; i < service.size(); ++i) {
    const ServiceSample& s = service[i];
    std::printf("%s{\"pair\":\"%s\",\"driver\":\"%s\",\"ms\":%.6f,"
                "\"queue_ms\":%.6f,\"exec_ms\":%.6f}",
                i ? "," : "", spec.pairs[s.pair].name,
                join::AlgorithmName(kDrivers[s.driver].algorithm), s.ms,
                s.queue_ms, s.exec_ms);
  }
  std::printf("],\"store\":[");
  for (size_t i = 0; i < store.size(); ++i) {
    const StoreSample& s = store[i];
    std::printf("%s{\"pair\":\"%s\",\"open_ms\":%.6f,\"probe_ms\":%.6f,"
                "\"passes\":",
                i ? "," : "", spec.pairs[s.pair].name, s.open_ms, s.probe_ms);
    PrintPasses(s.passes);
    std::printf("}");
  }
  std::printf("]}\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, seed_arg, seconds_arg, mmjoind, trace_file;
  for (int a = 1; a < argc; ++a) {
    if (!ParseFlag(argv[a], "--workload", &workload_name) &&
        !ParseFlag(argv[a], "--seed", &seed_arg) &&
        !ParseFlag(argv[a], "--seconds", &seconds_arg) &&
        !ParseFlag(argv[a], "--mmjoind", &mmjoind) &&
        !ParseFlag(argv[a], "--trace-file", &trace_file)) {
      Die(std::string("unknown flag ") + argv[a]);
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload_name == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown --workload=" + workload_name);
  const double seconds = std::strtod(seconds_arg.c_str(), nullptr);
  if (seconds <= 0 || mmjoind.empty()) Die("need --seconds and --mmjoind");
  const uint64_t seed = std::strtoull(seed_arg.c_str(), nullptr, 10);
  ::signal(SIGPIPE, SIG_IGN);

  Spans spans(!trace_file.empty(), Clock::now());
  Tally tally;

  // Set-up, repeated: every repetition but the last is torn down again.
  std::vector<SetupSample> setup(kSetupReps);
  std::string dir;
  std::unique_ptr<mm::SegmentManager> manager;
  Daemon daemon;
  std::vector<mm::MmWorkload> pairs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      daemon.Stop();
      pairs.clear();
      manager.reset();
      std::filesystem::remove_all(dir);
    }
    dir = "setup" + std::to_string(rep);
    std::filesystem::create_directories(dir + "/store");
    manager = std::make_unique<mm::SegmentManager>(dir + "/store");
    pairs = SetUp(*spec, seed, mmjoind, dir, manager.get(), &daemon,
                  &setup[rep], &spans);
  }

  const std::string socket = dir + "/mmjoind.sock";
  const size_t combos = pairs.size() * kNumDrivers;
  size_t embedded_cursor = 0;
  std::vector<size_t> service_cursors(kClients, 0);
  size_t store_cursor = 0;
  {
    std::vector<JoinSample> joins;
    std::vector<ServiceSample> queries;
    std::vector<StoreSample> probes;
    RunEmbedded(pairs, {.ops = kWarmupRounds * combos}, &embedded_cursor,
                &tally, &spans, &joins);
    RunService(*spec, pairs, socket,
               {.ops = (kWarmupRounds * combos + kClients - 1) / kClients},
               &service_cursors, &tally, &spans, &queries);
    RunStore(*spec, manager.get(), pairs, {.ops = kWarmupRounds * pairs.size()},
             &store_cursor, &tally, &spans, &probes);
  }

  const auto until = [&](double share) {
    return Budget{.deadline = Clock::now() +
                              std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      seconds * share / kSlices))};
  };
  std::vector<JoinSample> embedded;
  std::vector<ServiceSample> service;
  std::vector<StoreSample> store;
  for (int slice = 0; slice < kSlices; ++slice) {
    RunEmbedded(pairs, until(kEmbeddedShare), &embedded_cursor, &tally, &spans,
                &embedded);
    RunService(*spec, pairs, socket, until(kServiceShare), &service_cursors,
               &tally, &spans, &service);
    RunStore(*spec, manager.get(), pairs, until(kStoreShare), &store_cursor,
             &tally, &spans, &store);
  }

  daemon.Stop();
  spans.Write(trace_file);
  PrintResult(*spec, tally, setup, embedded, service, store);
  return 0;
}
