#include "exec/numa.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#if defined(__linux__)
#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mmjoin::exec {
namespace {

#if defined(__linux__) && defined(SYS_mbind)
// From <linux/mempolicy.h>, which is not part of the userspace toolchain
// everywhere; the ABI values are stable.
constexpr int kMpolBind = 2;
constexpr int kMpolInterleave = 3;
#endif

#if defined(__linux__)
/// Parses a sysfs cpulist ("0-3,8,10-11") into cpu ids. Returns an empty
/// vector on malformed input.
std::vector<uint32_t> ParseCpuList(const char* text) {
  std::vector<uint32_t> cpus;
  const char* p = text;
  while (*p != '\0' && *p != '\n') {
    char* end = nullptr;
    const unsigned long lo = std::strtoul(p, &end, 10);
    if (end == p) break;
    unsigned long hi = lo;
    p = end;
    if (*p == '-') {
      ++p;
      hi = std::strtoul(p, &end, 10);
      if (end == p) break;
      p = end;
    }
    for (unsigned long c = lo; c <= hi; ++c) {
      cpus.push_back(static_cast<uint32_t>(c));
    }
    if (*p == ',') ++p;
  }
  return cpus;
}
#endif

}  // namespace

const char* NumaModeName(NumaMode mode) {
  switch (mode) {
    case NumaMode::kNone:
      return "none";
    case NumaMode::kInterleave:
      return "interleave";
    case NumaMode::kLocal:
      return "local";
  }
  return "unknown";
}

uint32_t DetectNumaNodes() {
#if defined(__linux__)
  DIR* dir = opendir("/sys/devices/system/node");
  if (dir == nullptr) return 1;
  uint32_t nodes = 0;
  while (dirent* ent = readdir(dir)) {
    // Count node<digit...> entries; "node0" exists even on UMA hosts.
    if (std::strncmp(ent->d_name, "node", 4) != 0) continue;
    const char* tail = ent->d_name + 4;
    if (*tail == '\0') continue;
    bool digits = true;
    for (const char* p = tail; *p != '\0'; ++p) {
      if (*p < '0' || *p > '9') {
        digits = false;
        break;
      }
    }
    if (digits) ++nodes;
  }
  closedir(dir);
  return nodes > 0 ? nodes : 1;
#else
  return 1;
#endif
}

NumaTopology QueryNumaTopology() {
  NumaTopology topo;
  topo.nodes = DetectNumaNodes();
  topo.node_cpus.assign(topo.nodes, {});
#if defined(__linux__)
  for (uint32_t n = 0; n < topo.nodes; ++n) {
    const std::string path =
        "/sys/devices/system/node/node" + std::to_string(n) + "/cpulist";
    if (FILE* f = std::fopen(path.c_str(), "r")) {
      char buf[4096];
      if (std::fgets(buf, sizeof(buf), f) != nullptr) {
        topo.node_cpus[n] = ParseCpuList(buf);
      }
      std::fclose(f);
    }
  }
#if defined(SYS_get_mempolicy)
  {
    int mode = 0;
    if (syscall(SYS_get_mempolicy, &mode, nullptr, 0ul, nullptr, 0ul) == 0) {
      switch (mode) {
        case 0:
          topo.policy = "default";
          break;
        case 1:
          topo.policy = "preferred";
          break;
        case kMpolBind:
          topo.policy = "bind";
          break;
        case kMpolInterleave:
          topo.policy = "interleave";
          break;
        default:
          topo.policy = "mode" + std::to_string(mode);
          break;
      }
    }
  }
#endif
#endif
  // Fallback so a one-node summary still reports a cpu count.
  if (topo.node_cpus.size() == 1 && topo.node_cpus[0].empty()) {
    const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    for (uint32_t c = 0; c < hw; ++c) topo.node_cpus[0].push_back(c);
  }
  return topo;
}

std::string NumaTopologySummary(const NumaTopology& topo) {
  std::string cpus;
  for (size_t n = 0; n < topo.node_cpus.size(); ++n) {
    if (n != 0) cpus += "+";
    cpus += std::to_string(topo.node_cpus[n].size());
  }
  if (cpus.empty()) cpus = "?";
  return "nodes=" + std::to_string(topo.nodes) + " cpus=" + cpus +
         " policy=" + topo.policy;
}

Status BindInterleaved(void* base, uint64_t bytes, uint32_t nodes,
                       bool* applied) {
  *applied = false;
  if (nodes <= 1 || bytes == 0) return Status::OK();
#if defined(__linux__) && defined(SYS_mbind)
  if (nodes >= 64) nodes = 64;
  unsigned long mask =
      nodes == 64 ? ~0ul : ((1ul << nodes) - 1ul);  // NOLINT(runtime/int)
  // maxnode counts bits the kernel may read, plus one (historic quirk).
  const long rc = syscall(SYS_mbind, base, bytes, kMpolInterleave, &mask,
                          static_cast<unsigned long>(nodes + 1), 0u);
  if (rc != 0) {
    return Status::IOError(std::string("mbind(MPOL_INTERLEAVE): ") +
                           std::strerror(errno));
  }
  *applied = true;
  return Status::OK();
#else
  (void)base;
  return Status::OK();
#endif
}

Status PinThreadToNode(uint32_t node, const NumaTopology& topo,
                       bool* applied) {
  *applied = false;
  if (topo.nodes <= 1 || node >= topo.node_cpus.size() ||
      topo.node_cpus[node].empty()) {
    return Status::OK();
  }
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const uint32_t cpu : topo.node_cpus[node]) {
    if (cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    return Status::IOError(std::string("sched_setaffinity(node ") +
                           std::to_string(node) + "): " +
                           std::strerror(errno));
  }
  *applied = true;
  return Status::OK();
#else
  return Status::OK();
#endif
}

}  // namespace mmjoin::exec
