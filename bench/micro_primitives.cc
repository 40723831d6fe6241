// Micro-benchmarks (google-benchmark) for the substrate primitives: heap
// operations, page-cache touches, disk accesses, and segment-relative
// pointer dereferences. These measure *host* performance of the library
// machinery itself (not the simulated 1996 costs).
//
// Doubles as the planner's calibration tool:
//
//   micro_primitives --calibration=PATH [--calibration-only]
//
// runs the opt::MeasureCalibration() probes (sequential scan, banded
// random dereference, scatter copy, sort/hash/index-probe costs, fault
// cost) and writes the strict-JSON calibration file the adaptive planner
// loads (mmjoind --calibration, mmjoin_cli --calibration). With
// --calibration-only the google-benchmark suite is skipped.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "disk/disk_model.h"
#include "exec/kernels.h"
#include "heap/heapsort.h"
#include "heap/merge_heap.h"
#include "opt/calibration.h"
#include "util/random.h"
#include "vm/page_cache.h"

#include <string>

namespace mmjoin {
namespace {

void BM_HeapSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<uint64_t> original(n);
  for (auto& x : original) x = rng.Next();
  const HeapLess less = [](uint64_t a, uint64_t b) { return a < b; };
  for (auto _ : state) {
    std::vector<uint64_t> v = original;
    HeapSort(&v, less, nullptr);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_HeapSort)->Range(1 << 10, 1 << 16);

// The real backend's run sort: one run of (r_id, packed sptr) refs into
// one S partition, as op::SortRuns hands a run of sort-merge's RS_i or of
// MPSM's MR_i to SortRefs.
void BM_RadixSortRefs(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Rng rng(1);
  std::vector<exec::SRef> original(n);
  for (uint64_t k = 0; k < n; ++k) {
    original[k] = exec::SRef{k, rel::SPtr{3, rng.Uniform(n)}.Pack()};
  }
  for (auto _ : state) {
    std::vector<exec::SRef> v = original;
    exec::RadixSortRefs(v.data(), n, exec::SortKey::kSptr);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_RadixSortRefs)->Range(1 << 10, 1 << 16);

void BM_MergeHeapDeleteInsert(benchmark::State& state) {
  const size_t fanin = static_cast<size_t>(state.range(0));
  MergeHeap heap(fanin);
  Rng rng(2);
  for (size_t i = 0; i < fanin; ++i) {
    heap.Insert(MergeEntry{rng.Next(), static_cast<uint32_t>(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap.DeleteInsert(MergeEntry{rng.Next(), 0}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergeHeapDeleteInsert)->Range(2, 1 << 10);

void BM_PageCacheHit(benchmark::State& state) {
  disk::DiskArray disks(1, disk::DiskGeometry{});
  vm::PageCache cache(64, vm::PolicyKind::kLru, &disks);
  cache.Touch(vm::PageId{1, 0}, 0, 0, false, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Touch(vm::PageId{1, 0}, 0, 0, false, true));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageCacheHit);

void BM_PageCacheMissEvict(benchmark::State& state) {
  disk::DiskArray disks(1, disk::DiskGeometry{});
  vm::PageCache cache(64, vm::PolicyKind::kLru, &disks);
  uint64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Touch(vm::PageId{1, p++ % 100000}, 0, p % 100000, false, true));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageCacheMissEvict);

void BM_DiskRandomRead(benchmark::State& state) {
  disk::SimulatedDisk disk((disk::DiskGeometry()));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.ReadBlock(rng.Uniform(100000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskRandomRead);

void BM_SstfWriteQueue(benchmark::State& state) {
  disk::DiskGeometry g;
  g.write_queue_blocks = static_cast<uint32_t>(state.range(0));
  disk::SimulatedDisk disk(g);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.WriteBlock(rng.Uniform(100000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SstfWriteQueue)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace mmjoin

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark sees the command line.
  std::string calibration_path;
  bool calibration_only = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--calibration=", 14) == 0) {
      calibration_path = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--calibration-only") == 0) {
      calibration_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  if (!calibration_path.empty() || calibration_only) {
    const mmjoin::opt::Calibration calibration =
        mmjoin::opt::MeasureCalibration();
    const std::string path =
        calibration_path.empty() ? "calibration.json" : calibration_path;
    const mmjoin::Status st =
        mmjoin::opt::SaveCalibration(calibration, path);
    if (!st.ok()) {
      std::fprintf(stderr, "micro_primitives: calibration: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf(
        "# calibration: wrote %s (seq %.3f ns/B, scatter %.3f ns/B, "
        "sort %.2f ns/cmp, fault %.2f us/page)\n",
        path.c_str(), calibration.machine.seq_ns_per_byte,
        calibration.machine.scatter_ns_per_byte,
        calibration.machine.sort_ns_per_cmp,
        calibration.machine.fault_us_per_page);
    if (calibration_only) return 0;
  }

  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
