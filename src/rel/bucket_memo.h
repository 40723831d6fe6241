// Per-workload memo of the bucketed RS layout's populations.
//
// Grace, hybrid hash and index-NL size RS_j's K bucket regions exactly,
// from a count of R's pointers per bucket (exec::op::CountBuckets). That
// count depends only on R, |S_j| and K, so a workload that is joined over
// and over — a service catalog entry, a benchmark's pair — needs it once
// per K. The memo rides on the workload next to its `counts` metadata,
// fills lazily on the first bucketed join with a given K, and is never
// written by build, persist or open.
#ifndef MMJOIN_REL_BUCKET_MEMO_H_
#define MMJOIN_REL_BUCKET_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace mmjoin::rel {

/// Exact populations of the bucketed RS layout for one K. `buckets[j][b]`
/// counts the objects bound for bucket b of RS_j, except that own-partition
/// bucket-0 objects count in `resident[j]` instead: hybrid hash keeps those
/// in memory, Grace and index-NL fold them back into bucket 0.
/// `routed[i][j]` counts the R_i objects pointing into S_j, which must
/// equal the workload's |R_{i,j}| (`counts`) metadata.
struct BucketHistogram {
  std::vector<std::vector<uint64_t>> buckets;
  std::vector<uint64_t> resident;
  std::vector<std::vector<uint64_t>> routed;
};

/// A bounded, thread-safe map from K to the BucketHistogram counted for
/// it. Entries are immutable and shared, so a join holds its histogram
/// without the lock. Concurrent joins that both miss may both count; the
/// first insert wins. Past kMaxEntries distinct K the oldest entry is
/// evicted. A copy holds the same entries; a moved-from memo is empty.
class BucketMemo {
 public:
  static constexpr size_t kMaxEntries = 4;

  BucketMemo() = default;
  BucketMemo(const BucketMemo& other) : entries_(other.Snapshot()) {}
  BucketMemo(BucketMemo&& other) noexcept : entries_(other.Take()) {}
  BucketMemo& operator=(const BucketMemo& other) {
    if (this != &other) Replace(other.Snapshot());
    return *this;
  }
  BucketMemo& operator=(BucketMemo&& other) noexcept {
    if (this != &other) Replace(other.Take());
    return *this;
  }

  /// The histogram counted for `k`, or nullptr.
  std::shared_ptr<const BucketHistogram> Find(uint32_t k) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.first == k) return e.second;
    }
    return nullptr;
  }

  /// Stores `h` for `k` unless an entry for `k` is already there.
  void Insert(uint32_t k, std::shared_ptr<const BucketHistogram> h) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.first == k) return;
    }
    if (entries_.size() == kMaxEntries) entries_.erase(entries_.begin());
    entries_.emplace_back(k, std::move(h));
  }

  /// Number of K the memo holds.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  using Entry = std::pair<uint32_t, std::shared_ptr<const BucketHistogram>>;

  std::vector<Entry> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }
  std::vector<Entry> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(entries_, {});
  }
  void Replace(std::vector<Entry> entries) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_ = std::move(entries);
  }

  mutable std::mutex mu_;
  std::vector<Entry> entries_;  ///< guarded by mu_, oldest first
};

}  // namespace mmjoin::rel

#endif  // MMJOIN_REL_BUCKET_MEMO_H_
