// Cache-conscious dereference kernels for the real backend.
//
// The paper's thesis makes probe-loop cost equal to (cache misses + page
// faults), not instructions: in a memory-mapped single-level store the
// "I/O" of a pointer join happens implicitly when the probe loop touches
// the S object. That turns the three probe sites of the drivers — the
// nested-loops pass-1 probe, the Grace/hybrid bucket-chain probe, and the
// sort-merge merge-side fetch — into pure memory-latency benchmarks, and
// memory-latency benchmarks are exactly what software prefetching and
// cache-line-conscious staging fix.
//
// One primitive, batched:
//
//   ProbeRefs     dereference an array of (r_id, packed sptr) references.
//                 A software pipeline issues __builtin_prefetch for the
//                 S object `distance` iterations ahead, so by the time the
//                 payload is touched the line is (ideally) in flight or
//                 resident — the group-prefetch/AMAC idea specialized to
//                 the paper's fixed-size objects. The real backend's
//                 temporaries (RP bands, RS buckets) are SRef arrays
//                 already, so a band is probed in place.
//
// It accumulates into a KernelTally: count/digest are the join output
// (bit-identical to a one-at-a-time loop — addition is commutative and
// the digest per match does not depend on probe order), requests/
// prefetches/batches feed the join.kernel.* metrics. It is the real
// backend's only probe path (exec/backend.h, kBatchedProbe).
//
// One sort primitive sits next to it: RadixSortRefs, the real backend's
// SortRefs (exec/backend.h) — a stable LSB radix sort of 16-byte SRefs,
// in place of the simulator's counted heapsort through a comparator.
#ifndef MMJOIN_EXEC_KERNELS_H_
#define MMJOIN_EXEC_KERNELS_H_

#include <cstdint>

#include "rel/relation.h"

namespace mmjoin::exec {

/// How aggressively the real backend advises the kernel about paging.
enum class PagingMode : uint8_t {
  kNone,    ///< no hints: the kernel sees naked faults (the A/B baseline)
  kAdvise,  ///< madvise intents: SEQUENTIAL/RANDOM per pass, WILLNEED
            ///< ahead of a band, POPULATE_WRITE pre-fault of temporaries
            ///< about to be filled (skipped once a block is populated)
};

const char* PagingModeName(PagingMode paging);

/// Prefetch distance (in-flight S dereferences) of the real backend's
/// probe sites. Chosen empirically: deep enough to cover DRAM latency at
/// ~45 ns/probe, shallow enough that the staged refs stay in L1.
inline constexpr uint32_t kDefaultPrefetchDistance = 32;
/// Upper bound on the configurable distance (size of the staging window).
inline constexpr uint32_t kMaxPrefetchDistance = 256;

/// One staged S dereference: which R object asked, and for what. Layout-
/// compatible with the drivers' chain-table entries, so a bucket chain can
/// be probed without repacking.
struct SRef {
  uint64_t r_id = 0;
  uint64_t sptr = 0;  ///< rel::SPtr::Pack form
};
static_assert(sizeof(SRef) == 16, "SRef must stay two words");

/// Sort order of an SRef array (exec::Backend::SortRefs).
enum class SortKey : uint8_t {
  kSptr,         ///< packed S-pointer alone (sort-merge/MPSM runs)
  kSptrThenRid,  ///< (sptr, r_id): a total order (index-nl leaves)
};

/// Stable LSB radix sort of refs[0..n) by `key`, 8-bit digits. One read
/// pass builds every digit's histogram; digits on which all keys agree
/// (the partition bits of one run, the high index bytes) are skipped, so a
/// run typically costs ~3 scatter passes. kSptrThenRid sorts by r_id
/// first, then stably by sptr. Ties under kSptr keep their input order.
/// Charges nothing: the real backend's sort (DESIGN.md §7.9).
void RadixSortRefs(SRef* refs, uint64_t n, SortKey key);

/// Output + telemetry accumulator of the kernels. count/digest are the join
/// result contribution; the rest feeds join.kernel.* metrics.
struct KernelTally {
  uint64_t count = 0;       ///< join output objects emitted
  uint64_t digest = 0;      ///< sum of rel::OutputDigest over the matches
  uint64_t requests = 0;    ///< S dereferences performed through a kernel
  uint64_t prefetches = 0;  ///< __builtin_prefetch issued
  uint64_t batches = 0;     ///< kernel invocations (ProbeRefs)
};

/// Dereferences refs[0..n) against the S partitions (`parts[p]` = base of
/// partition p's SObject array) with a `distance`-deep prefetch pipeline.
void ProbeRefs(const SRef* refs, uint64_t n,
               const rel::SObject* const* parts, uint32_t distance,
               KernelTally* tally);

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_KERNELS_H_
