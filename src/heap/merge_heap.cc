#include "heap/merge_heap.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace mmjoin {

MergeHeap::MergeHeap(size_t capacity) { heap_.reserve(capacity); }

void MergeHeap::Insert(const MergeEntry& e) {
  heap_.push_back(e);
  ++cost_.transfers;
  SiftUp(heap_.size() - 1);
}

void MergeHeap::SiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    ++cost_.compares;
    if (heap_[parent].key <= heap_[i].key) return;
    std::swap(heap_[i], heap_[parent]);
    ++cost_.swaps;
    i = parent;
  }
}

double MergeHeap::ModelDeleteInsertLevels(uint64_t h) {
  if (h <= 1) return 0.0;
  const double k = std::ceil(std::log2(static_cast<double>(h))) + 1.0;
  const double hh = static_cast<double>(h);
  return (k * (hh + 1.0) - std::pow(2.0, k)) / hh;
}

}  // namespace mmjoin
