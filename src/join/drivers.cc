#include "join/drivers.h"

#include "join/grace.h"
#include "join/hybrid_hash.h"
#include "join/index_nl.h"
#include "join/mpsm.h"
#include "join/nested_loops.h"
#include "join/sort_merge.h"

namespace mmjoin::join {

// The rows point at the named entry points rather than instantiating the
// driver templates here: each template stays instantiated in its own
// join/*.cc and in mmap/mmap_join.cc, so the table moves no driver code.
constexpr DriverSpec kDrivers[kNumAlgorithms] = {
    {Algorithm::kNestedLoops, "nested-loops", RunNestedLoops,
     mm::MmNestedLoops},
    {Algorithm::kSortMerge, "sort-merge", RunSortMerge, mm::MmSortMerge},
    {Algorithm::kGrace, "grace", RunGrace, mm::MmGrace},
    {Algorithm::kHybridHash, "hybrid-hash", RunHybridHash, mm::MmHybridHash},
    {Algorithm::kIndexNestedLoops, "index-nl", RunIndexNestedLoops,
     mm::MmIndexNestedLoops},
    {Algorithm::kMpsm, "mpsm", RunMpsm, mm::MmMpsm},
};

// Driver(a) indexes by enum value; a missing row would be zero-filled.
static_assert([] {
  for (size_t i = 0; i < kNumAlgorithms; ++i) {
    if (kDrivers[i].algorithm != static_cast<Algorithm>(i) ||
        kDrivers[i].name == nullptr) {
      return false;
    }
  }
  return true;
}());

const char* AlgorithmName(Algorithm a) {
  const auto i = static_cast<size_t>(a);
  return i < kNumAlgorithms ? kDrivers[i].name : "?";
}

std::optional<Algorithm> ParseAlgorithm(std::string_view name) {
  for (const DriverSpec& d : kDrivers) {
    if (name == d.name) return d.algorithm;
  }
  return std::nullopt;
}

std::string AlgorithmNames(std::string_view separator) {
  std::string names;
  for (const DriverSpec& d : kDrivers) {
    if (!names.empty()) names += separator;
    names += d.name;
  }
  return names;
}

}  // namespace mmjoin::join
