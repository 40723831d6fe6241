// NUMA-aware placement for the real backend's anonymous segments.
//
// The backend's temporaries (RP bands, RS/merge scratch) are anonymous
// mmap regions whose pages are placed by the kernel's first-touch policy:
// whichever thread faults a page first gets it on its local node. With
// the default kNone we keep that behavior. kInterleave spreads each
// segment round-robin across all nodes via mbind(MPOL_INTERLEAVE) before
// the first touch — the right default for bands that every worker reads
// in a later pass. kLocal leans into first-touch instead: each RP band's
// pages are pre-faulted by the worker that owns its partition, so the
// partition's pass-1 reader finds them node-local, and workers pin to
// their node's cpus (PinThreadToNode).
//
// No libnuma: the two policy calls we need are the raw mbind(2) syscall,
// issued via syscall(2) with locally defined MPOL_* values, and
// sched_setaffinity(2). On single-node hosts (or kernels without mbind)
// everything degrades to counted no-ops — options never fail, they just
// report zero effect in join.numa.* (real_backend_test pins this fallback
// behavior).
#ifndef MMJOIN_EXEC_NUMA_H_
#define MMJOIN_EXEC_NUMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace mmjoin::exec {

/// Placement policy for the real backend's anonymous temporaries.
enum class NumaMode : uint8_t {
  kNone,        ///< kernel default (first-touch wherever the fault lands)
  kInterleave,  ///< mbind(MPOL_INTERLEAVE) across all nodes before touch
  kLocal,       ///< pre-fault each RP band on its owning worker
};

const char* NumaModeName(NumaMode mode);

/// Number of online NUMA nodes (>= 1); 1 on non-NUMA hosts or when the
/// sysfs topology is unreadable.
uint32_t DetectNumaNodes();

/// The host's NUMA shape as read from sysfs, plus the calling thread's
/// current memory policy. Degrades to a one-node topology covering every
/// cpu where sysfs is unreadable (non-Linux, restricted containers).
struct NumaTopology {
  uint32_t nodes = 1;                   ///< online nodes (>= 1)
  std::vector<std::vector<uint32_t>> node_cpus;  ///< cpu ids per node
  std::string policy = "default";       ///< current thread mempolicy name
};

/// Probes /sys/devices/system/node/node*/cpulist and get_mempolicy(2).
/// Never fails; unreadable pieces fall back to their defaults.
NumaTopology QueryNumaTopology();

/// One-line human summary for run headers, e.g.
/// "nodes=2 cpus=8+8 policy=default". Committed bench JSONs carry it so a
/// reader knows what topology a number was measured on.
std::string NumaTopologySummary(const NumaTopology& topo);

/// Applies MPOL_INTERLEAVE over all `nodes` to [base, base+bytes). Sets
/// *applied=false (and returns OK) when there is nothing to do: a single
/// node, or a platform without the mbind syscall. A real mbind failure
/// returns the errno as a Status.
Status BindInterleaved(void* base, uint64_t bytes, uint32_t nodes,
                       bool* applied);

/// Pins the calling thread to `node`'s cpus per `topo` via
/// sched_setaffinity(2). Sets *applied=false (and returns OK) when there
/// is nothing to do: a one-node topology, an out-of-range node, or a
/// platform without thread affinity. Pinning is a pure locality hint —
/// failures are reported but never affect results.
Status PinThreadToNode(uint32_t node, const NumaTopology& topo,
                       bool* applied);

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_NUMA_H_
