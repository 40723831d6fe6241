// Delete-insert merge heap used by the merging passes of the parallel
// sort-merge join (section 6.1): a min-heap of NRUN cursors, one per sorted
// input run. The heap always holds the next unprocessed element of each run;
// DeleteInsert pops the minimum and inserts its successor from the same run
// in a single combined sift (the classic replacement-selection primitive,
// Gonnet & Baeza-Yates p.214).
#ifndef MMJOIN_HEAP_MERGE_HEAP_H_
#define MMJOIN_HEAP_MERGE_HEAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "heap/heap_cost.h"

namespace mmjoin {

/// An entry in the merge heap: a sort key plus the id of the run it came
/// from (so the consumer can advance the right cursor).
struct MergeEntry {
  uint64_t key = 0;
  uint32_t run = 0;
};

/// Min-heap over MergeEntry keyed on `key`, with counted operations.
class MergeHeap {
 public:
  /// Constructs an empty heap with capacity for `capacity` entries.
  explicit MergeHeap(size_t capacity);

  /// Inserts an entry (used while priming the heap).
  void Insert(const MergeEntry& e);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Returns the minimum entry without removing it. Heap must be non-empty.
  const MergeEntry& Min() const { return heap_[0]; }

  /// Removes and returns the minimum. Heap must be non-empty.
  MergeEntry DeleteMin() {
    assert(!heap_.empty());
    const MergeEntry min = heap_[0];
    ++cost_.transfers;
    const MergeEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(last);
    return min;
  }

  /// Combined delete-min + insert: replaces the root with `next` and sifts
  /// once. Strictly cheaper than DeleteMin() followed by Insert().
  /// Returns the removed minimum.
  MergeEntry DeleteInsert(const MergeEntry& next) {
    assert(!heap_.empty());
    const MergeEntry min = heap_[0];
    cost_.transfers += 2;  // one element out, one element in
    SiftDown(next);
    return min;
  }

  const HeapCost& cost() const { return cost_; }
  void ResetCost() { cost_ = HeapCost{}; }

  /// Analytical per-operation cost g(h) of a delete-insert on a heap of h
  /// elements per the paper:
  ///   g(h) = (2*compare + swap) * ((k*(h+1) - 2^k) / h),  k = ceil(log2 h)+1
  /// expressed here as the expected number of (compare, swap) pairs.
  static double ModelDeleteInsertLevels(uint64_t h);

 private:
  /// Sifts `e` down from the root, which it replaces. Inline, with a hole
  /// instead of swaps and a branch-free pick of the smaller child: the
  /// merge loops pop one entry per tuple. Each level a swap would visit
  /// counts as one swap, and each child compared as one compare, exactly
  /// as a swapping sift-down does, so the counted costs and the resulting
  /// heap are the same.
  void SiftDown(MergeEntry e) {
    const size_t n = heap_.size();
    MergeEntry* h = heap_.data();
    size_t i = 0;
    for (;;) {
      const size_t l = 2 * i + 1;
      if (l >= n) break;
      size_t c = l;
      ++cost_.compares;
      if (l + 1 < n) {
        ++cost_.compares;
        c = h[l + 1].key < h[l].key ? l + 1 : l;
      }
      if (!(h[c].key < e.key)) break;
      h[i] = h[c];
      ++cost_.swaps;
      i = c;
    }
    h[i] = e;
  }
  void SiftUp(size_t i);

  std::vector<MergeEntry> heap_;
  HeapCost cost_;
};

}  // namespace mmjoin

#endif  // MMJOIN_HEAP_MERGE_HEAP_H_
