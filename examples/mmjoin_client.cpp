// mmjoin_client: command-line client for a running mmjoind.
//
//   mmjoin_client [--socket=PATH] register NAME R_OBJECTS S_OBJECTS
//       PARTITIONS [THETA] [SEED]
//   mmjoin_client [--socket=PATH] query NAME DRIVER|auto
//       [--priority=low|normal|high] [--trace]
//       (DRIVER is a name from join::kDrivers, as the usage text lists)
//   mmjoin_client [--socket=PATH] plan NAME q1|q4|q6
//       [--priority=low|normal|high] [--trace]
//   mmjoin_client [--socket=PATH] list | stats | ping | shutdown
//   mmjoin_client [--socket=PATH] unregister NAME
//
// One request per invocation; the response prints human-readable. Exit
// status: 0 on a success response, 1 on an error response or transport
// failure, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mmjoin/mmjoin.h"
#include "util/cli.h"

namespace {

using namespace mmjoin;

/// The usage text after its ALGORITHM list, which Usage() builds.
constexpr char kCommandsUsage[] =
    "                 (auto: the adaptive planner picks; the result\n"
    "                 echoes the chosen driver)\n"
    "  plan NAME PLAN [--priority=low|normal|high] [--trace]\n"
    "      PLAN: q1 | q4 | q6 (built-in TPC-H-style plans)\n"
    "  persist NAME [MSYNC]  seal as a durable store (none|async|sync)\n"
    "  load NAME          reattach a persisted store (checksums verified)\n"
    "  unregister NAME    drop a relation (and its store, if durable)\n"
    "  list               registered relations\n"
    "  stats              aggregate service counters\n"
    "  ping               liveness probe\n"
    "  shutdown           ask the daemon to drain and exit\n"
    "  --socket=PATH      daemon socket      [/tmp/mmjoind.sock]\n";

const char* Usage() {
  static const std::string usage =
      "usage: mmjoin_client [--socket=PATH] COMMAND [args]\n"
      "  register NAME R S PARTITIONS [THETA] [SEED]  build + keep resident\n"
      "  query NAME ALGORITHM [--priority=low|normal|high] [--trace]\n"
      "      ALGORITHM: " +
      join::AlgorithmNames(" | ") + " | " + join::kAutoAlgorithmName + "\n" +
      kCommandsUsage;
  return usage.c_str();
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int PrintResponse(const svc::Response& resp) {
  switch (resp.op) {
    case svc::ResponseOp::kError:
      std::fprintf(stderr, "error (%s): %s\n",
                   svc::ErrorCodeName(resp.error), resp.message.c_str());
      if (resp.retry_after_ms > 0) {
        std::fprintf(stderr, "retry after %llu ms\n",
                     static_cast<unsigned long long>(resp.retry_after_ms));
      }
      return 1;
    case svc::ResponseOp::kWelcome:
      std::printf("welcome, protocol v%u\n", resp.version);
      return 0;
    case svc::ResponseOp::kPong:
      std::printf("pong\n");
      return 0;
    case svc::ResponseOp::kDraining:
      std::printf("draining\n");
      return 0;
    case svc::ResponseOp::kRegistered:
      std::printf("registered %s (%llu resident bytes)\n", resp.name.c_str(),
                  static_cast<unsigned long long>(resp.resident_bytes));
      return 0;
    case svc::ResponseOp::kUnregistered:
      std::printf("unregistered %s\n", resp.name.c_str());
      return 0;
    case svc::ResponseOp::kPersisted:
      std::printf("persisted %s (%llu resident bytes)\n", resp.name.c_str(),
                  static_cast<unsigned long long>(resp.resident_bytes));
      return 0;
    case svc::ResponseOp::kLoaded:
      std::printf("loaded %s (%llu resident bytes)\n", resp.name.c_str(),
                  static_cast<unsigned long long>(resp.resident_bytes));
      return 0;
    case svc::ResponseOp::kResult:
      std::printf("result: algorithm=%s%s count=%llu checksum=0x%016llx "
                  "verified=%s exec=%.2fms queue=%.2fms threads=%u\n",
                  join::AlgorithmName(resp.algorithm),
                  resp.planner_auto ? " (planner pick)" : "",
                  static_cast<unsigned long long>(resp.count),
                  static_cast<unsigned long long>(resp.checksum),
                  resp.verified ? "yes" : "NO", resp.exec_ms, resp.queue_ms,
                  resp.threads);
      return resp.verified ? 0 : 1;
    case svc::ResponseOp::kPlanResult:
      std::printf("plan %s: rows=%llu checksum=0x%016llx verified=%s "
                  "scanned=%llu filtered=%llu joined=%llu "
                  "exec=%.2fms queue=%.2fms threads=%u\n",
                  resp.plan.c_str(),
                  static_cast<unsigned long long>(resp.count),
                  static_cast<unsigned long long>(resp.checksum),
                  resp.verified ? "yes" : "NO",
                  static_cast<unsigned long long>(resp.rows_scanned),
                  static_cast<unsigned long long>(resp.rows_filtered),
                  static_cast<unsigned long long>(resp.rows_joined),
                  resp.exec_ms, resp.queue_ms, resp.threads);
      for (const svc::PlanGroupEntry& g : resp.groups) {
        std::printf("  group 0x%016llx:",
                    static_cast<unsigned long long>(g.key));
        for (uint64_t a : g.aggs) {
          std::printf(" %llu", static_cast<unsigned long long>(a));
        }
        std::printf("\n");
      }
      return resp.verified ? 0 : 1;
    case svc::ResponseOp::kRelations:
      for (const svc::RelationInfo& r : resp.relations) {
        std::printf("%-16s |R|=%llu |S|=%llu D=%u theta=%.2f seed=%llu "
                    "resident=%llu pins=%u%s\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.r_objects),
                    static_cast<unsigned long long>(r.s_objects),
                    r.partitions, r.zipf_theta,
                    static_cast<unsigned long long>(r.seed),
                    static_cast<unsigned long long>(r.resident_bytes),
                    r.pins, r.durable ? " durable" : "");
      }
      if (resp.relations.empty()) std::printf("(no relations)\n");
      return 0;
    case svc::ResponseOp::kStats:
      for (const svc::StatEntry& e : resp.stats) {
        std::printf("%-28s %llu\n", e.name.c_str(),
                    static_cast<unsigned long long>(e.value));
      }
      return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/mmjoind.sock";
  svc::Request req;
  std::vector<std::string> positional;
  for (int a = 1; a < argc; ++a) {
    std::string v;
    if (ParseFlag(argv[a], "--socket", &v)) {
      socket_path = v;
    } else if (ParseFlag(argv[a], "--priority", &v)) {
      if (v == "low") {
        req.priority = exec::QueryPriority::kLow;
      } else if (v == "normal") {
        req.priority = exec::QueryPriority::kNormal;
      } else if (v == "high") {
        req.priority = exec::QueryPriority::kHigh;
      } else {
        cli::BadFlagValue("mmjoin_client", argv[a], Usage());
      }
    } else if (std::strcmp(argv[a], "--trace") == 0) {
      req.trace = true;
    } else if (cli::IsFlagLike(argv[a])) {
      cli::UnknownFlag("mmjoin_client", argv[a], Usage());
    } else {
      positional.push_back(argv[a]);
    }
  }
  if (positional.empty()) cli::UnknownFlag("mmjoin_client", "", Usage());
  const std::string& command = positional[0];
  auto need = [&](size_t n) {
    if (positional.size() != 1 + n) {
      cli::UnknownFlag("mmjoin_client", command, Usage());
    }
  };
  if (command == "register") {
    if (positional.size() < 5 || positional.size() > 7) {
      cli::UnknownFlag("mmjoin_client", command, Usage());
    }
    req.op = svc::RequestOp::kRegister;
    req.name = positional[1];
    req.r_objects = std::strtoull(positional[2].c_str(), nullptr, 10);
    req.s_objects = std::strtoull(positional[3].c_str(), nullptr, 10);
    req.partitions =
        static_cast<uint32_t>(std::strtoul(positional[4].c_str(), nullptr,
                                           10));
    if (positional.size() > 5) {
      req.zipf_theta = std::strtod(positional[5].c_str(), nullptr);
    }
    if (positional.size() > 6) {
      req.seed = std::strtoull(positional[6].c_str(), nullptr, 10);
    }
    if (req.r_objects == 0 || req.s_objects == 0 || req.partitions == 0) {
      cli::BadFlagValue("mmjoin_client", "register sizes", Usage());
    }
  } else if (command == "query") {
    if (positional.size() != 3) {
      cli::UnknownFlag("mmjoin_client", command, Usage());
    }
    req.op = svc::RequestOp::kQuery;
    req.name = positional[1];
    const std::string& algo = positional[2];
    if (auto a = join::ParseAlgorithm(algo)) {
      req.algorithm = *a;
    } else if (algo == join::kAutoAlgorithmName) {
      req.algorithm_auto = true;
    } else {
      cli::BadFlagValue("mmjoin_client", algo, Usage());
    }
  } else if (command == "plan") {
    if (positional.size() != 3) {
      cli::UnknownFlag("mmjoin_client", command, Usage());
    }
    req.op = svc::RequestOp::kRunPlan;
    req.name = positional[1];
    req.plan = positional[2];
  } else if (command == "persist") {
    if (positional.size() < 2 || positional.size() > 3) {
      cli::UnknownFlag("mmjoin_client", command, Usage());
    }
    req.op = svc::RequestOp::kPersist;
    req.name = positional[1];
    if (positional.size() > 2) req.msync = positional[2];
  } else if (command == "load") {
    need(1);
    req.op = svc::RequestOp::kLoad;
    req.name = positional[1];
  } else if (command == "unregister") {
    need(1);
    req.op = svc::RequestOp::kUnregister;
    req.name = positional[1];
  } else if (command == "list") {
    need(0);
    req.op = svc::RequestOp::kList;
  } else if (command == "stats") {
    need(0);
    req.op = svc::RequestOp::kStats;
  } else if (command == "ping") {
    need(0);
    req.op = svc::RequestOp::kPing;
  } else if (command == "shutdown") {
    need(0);
    req.op = svc::RequestOp::kShutdown;
  } else {
    cli::UnknownFlag("mmjoin_client", command, Usage());
  }

  svc::Client client;
  Status st = client.Connect(socket_path);
  if (st.ok()) st = client.Handshake();
  if (!st.ok()) {
    std::fprintf(stderr, "mmjoin_client: %s\n", st.ToString().c_str());
    return 1;
  }
  auto resp = client.Call(req);
  if (!resp.ok()) {
    std::fprintf(stderr, "mmjoin_client: %s\n",
                 resp.status().ToString().c_str());
    return 1;
  }
  return PrintResponse(*resp);
}
