// The real backend's sort: exec::RadixSortRefs against std::stable_sort on
// adversarial key shapes, and the sort stages on the real backend's
// temporaries, which hold 16-byte SRefs (RealBackend::Tuple): op::SortRuns
// over all of a band's runs, as sort-merge runs it, and over run ranges in
// concurrent independent morsels, as MPSM's pass 1 runs it on MR_i; and
// op::SortRun by (sptr, r_id), as index-NL's build runs it.
//
// The stage checks matter because the join oracle cannot see an unsorted
// sort-merge run: the final merge still emits every ref into commutative
// tallies, so count and checksum come out right either way.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/kernels.h"
#include "exec/op/stages.h"
#include "exec/real_backend.h"
#include "join/join_common.h"
#include "mmap/mm_relation.h"
#include "mmap/segment_manager.h"
#include "rel/relation.h"
#include "scratch_dir.h"
#include "util/random.h"

namespace mmjoin {
namespace {

using exec::SortKey;
using exec::SRef;

bool LessSptr(const SRef& a, const SRef& b) { return a.sptr < b.sptr; }
bool LessSptrRid(const SRef& a, const SRef& b) {
  return a.sptr != b.sptr ? a.sptr < b.sptr : a.r_id < b.r_id;
}

/// Radix-sorts a copy of `refs` and compares it element for element with
/// std::stable_sort under the same key (stability included).
void ExpectMatchesStableSort(const std::vector<SRef>& refs, SortKey key) {
  std::vector<SRef> want = refs;
  std::stable_sort(want.begin(), want.end(),
                   key == SortKey::kSptr ? LessSptr : LessSptrRid);
  std::vector<SRef> got = refs;
  exec::RadixSortRefs(got.data(), got.size(), key);
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].sptr, want[k].sptr) << "at " << k;
    ASSERT_EQ(got[k].r_id, want[k].r_id) << "at " << k;
  }
}

/// Builds n refs with sptr = make_sptr(k, rng); r_id is the position for
/// kSptr (so stability is visible) and a small random value for
/// kSptrThenRid (so ties on sptr are broken by r_id, with some full ties).
template <typename MakeSptr>
std::vector<SRef> Refs(uint64_t n, SortKey key, MakeSptr&& make_sptr) {
  Rng rng(n * 31 + static_cast<uint64_t>(key));
  std::vector<SRef> refs(n);
  for (uint64_t k = 0; k < n; ++k) {
    refs[k].sptr = make_sptr(k, rng);
    refs[k].r_id = key == SortKey::kSptr ? k : rng.Uniform(n / 2 + 1);
  }
  return refs;
}

class RadixSortRefsTest
    : public ::testing::TestWithParam<std::pair<SortKey, uint64_t>> {};

TEST_P(RadixSortRefsTest, MatchesStableSortOnEveryKeyShape) {
  const auto [key, n] = GetParam();
  SCOPED_TRACE("n=" + std::to_string(n) +
               (key == SortKey::kSptr ? " kSptr" : " kSptrThenRid"));
  // All keys equal: every digit is skipped, the input must come back.
  ExpectMatchesStableSort(
      Refs(n, key, [](uint64_t, Rng&) { return rel::SPtr{2, 7}.Pack(); }),
      key);
  // Keys differ only in the partition bits (>= 52).
  ExpectMatchesStableSort(Refs(n, key,
                               [](uint64_t, Rng& rng) {
                                 return rel::SPtr{static_cast<uint32_t>(
                                                      rng.Uniform(4095)),
                                                  5}
                                     .Pack();
                               }),
                          key);
  // Keys differ only in the low byte.
  ExpectMatchesStableSort(
      Refs(n, key,
           [](uint64_t, Rng& rng) {
             return rel::SPtr{1, 0x4200 + rng.Uniform(256)}.Pack();
           }),
      key);
  // Random 64-bit keys: every digit varies.
  ExpectMatchesStableSort(
      Refs(n, key, [](uint64_t, Rng& rng) { return rng.Next(); }), key);
  // Zipf-duplicated keys, as in a skewed run: long tie runs.
  ZipfGenerator zipf(1000, 1.1, n + 5);
  ExpectMatchesStableSort(Refs(n, key,
                               [&zipf](uint64_t, Rng&) {
                                 return rel::SPtr{3, zipf.Next()}.Pack();
                               }),
                          key);
}

std::vector<std::pair<SortKey, uint64_t>> Cases() {
  std::vector<std::pair<SortKey, uint64_t>> cases;
  for (SortKey key : {SortKey::kSptr, SortKey::kSptrThenRid}) {
    for (uint64_t n : {0, 1, 2, 3, 33, 1000, 20000}) {
      cases.emplace_back(key, n);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(KeysAndSizes, RadixSortRefsTest,
                         ::testing::ValuesIn(Cases()));

// ---------------------------------------------------------------------------
// The sort stages on the real backend.
// ---------------------------------------------------------------------------

class RealSortStageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = 20000;
    rc.num_partitions = 4;
    rc.zipf_theta = 1.1;  // long duplicate runs
    auto w = mm::BuildMmWorkload(mgr_.get(), "w", rc);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    workload_ = std::make_unique<mm::MmWorkload>(std::move(w).value());
    exec::RealBackendOptions options;
    options.max_threads = 4;
    ex_ = std::make_unique<exec::RealBackend>(*workload_, join::JoinParams{},
                                              options);
  }

  /// A fresh temporary holding the ref of every R object, partition by
  /// partition, as the real backend's RS bands hold them: a band whose keys
  /// span all S partitions, as MPSM's one-node band does.
  exec::RealBackend::Seg AllOfR(uint64_t* n) {
    static_assert(std::is_same_v<exec::RealBackend::Tuple, SRef>);
    *n = 0;
    for (uint32_t i = 0; i < ex_->D(); ++i) *n += ex_->r_count(i);
    auto seg = ex_->CreateSegment("band", 0, *n * sizeof(SRef));
    EXPECT_TRUE(seg.ok());
    auto* band = static_cast<SRef*>(ex_->Write(0, *seg, 0, *n * sizeof(SRef)));
    for (uint32_t i = 0; i < ex_->D(); ++i) {
      const rel::RObject* objs = ex_->RawR(i);
      for (uint64_t k = 0; k < ex_->r_count(i); ++k) {
        *band++ = exec::RefOf(objs[k]);
      }
    }
    return *seg;
  }

  /// A copy of the n refs of `seg`.
  std::vector<SRef> Refs(exec::RealBackend::Seg seg, uint64_t n) {
    const auto* refs =
        static_cast<const SRef*>(ex_->Read(0, seg, 0, n * sizeof(SRef)));
    return std::vector<SRef>(refs, refs + n);
  }

  /// Every IRUN-long run of `after` is non-decreasing in sptr and holds
  /// exactly the (id, sptr) multiset `before` held there.
  void ExpectRunsSorted(const std::vector<SRef>& before,
                        const std::vector<SRef>& after, uint64_t irun) {
    const uint64_t n = before.size();
    ASSERT_EQ(after.size(), n);
    for (uint64_t start = 0; start < n; start += irun) {
      const uint64_t len = std::min(irun, n - start);
      std::vector<SRef> got(after.begin() + start,
                            after.begin() + start + len);
      for (uint64_t k = 1; k < len; ++k) {
        ASSERT_LE(got[k - 1].sptr, got[k].sptr) << "run @" << start;
      }
      std::vector<SRef> want(before.begin() + start,
                             before.begin() + start + len);
      std::sort(got.begin(), got.end(), LessSptrRid);
      std::sort(want.begin(), want.end(), LessSptrRid);
      for (uint64_t k = 0; k < len; ++k) {
        ASSERT_EQ(got[k].r_id, want[k].r_id) << "run @" << start;
        ASSERT_EQ(got[k].sptr, want[k].sptr) << "run @" << start;
      }
    }
  }

  ScratchDir scratch_{"sort_refs"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
  std::unique_ptr<mm::MmWorkload> workload_;
  std::unique_ptr<exec::RealBackend> ex_;
};

TEST_F(RealSortStageTest, SortRunsLeavesEveryRunSorted) {
  uint64_t n = 0;
  const auto seg = AllOfR(&n);
  const std::vector<SRef> before = Refs(seg, n);
  const uint64_t irun = 1500;  // does not divide n: a short last run
  exec::op::SortRuns(*ex_, 0, seg, n, irun, 0, exec::op::CeilDiv(n, irun));
  ExpectRunsSorted(before, Refs(seg, n), irun);
  ASSERT_TRUE(ex_->DeleteSegment(seg).ok());
}

TEST_F(RealSortStageTest, MpsmShapedConcurrentRunSortsLeaveEveryRunSorted) {
  // MPSM pass 1: a 16-byte ref segment cut into runs of L refs, each
  // morsel of runs sorted in place by op::SortRuns, the morsels
  // independent and concurrent on the worker threads.
  uint64_t n = 0;
  const auto band = AllOfR(&n);
  const std::vector<SRef> before = Refs(band, n);
  auto seg = ex_->CreateSegment("MR", 0, n * sizeof(SRef));
  ASSERT_TRUE(seg.ok());
  auto* refs = static_cast<SRef*>(ex_->Write(0, *seg, 0, n * sizeof(SRef)));
  std::copy(before.begin(), before.end(), refs);
  const uint64_t run_len = 700;  // does not divide n: a short last run
  ASSERT_NE(n % run_len, 0u);
  const uint64_t runs = exec::op::CeilDiv(n, run_len);
  const uint32_t d = ex_->D();
  std::vector<uint64_t> first(d), count(d);
  for (uint32_t q = 0; q < d; ++q) {
    first[q] = q * runs / d;
    count[q] = (q + 1) * runs / d - first[q];
  }
  ex_->ForEachPartitionTuples(
      count,
      [&](uint32_t q, uint64_t rb, uint64_t re) {
        exec::op::SortRuns<exec::RealBackend, SRef>(
            *ex_, q, *seg, n, run_len, first[q] + rb, first[q] + re);
      },
      /*independent=*/true);
  ExpectRunsSorted(before, std::vector<SRef>(refs, refs + n), run_len);
  ASSERT_TRUE(ex_->DeleteSegment(*seg).ok());
  ASSERT_TRUE(ex_->DeleteSegment(band).ok());
}

TEST_F(RealSortStageTest, SortRunSortsBucketsInPlaceBySptrThenRid) {
  uint64_t n = 0;
  const auto rs = AllOfR(&n);
  std::vector<SRef> want = Refs(rs, n);
  // Two buckets sorted in place, as the index-nl build loop does.
  const uint64_t half = n / 2;
  exec::op::SortRun(*ex_, 0, rs, 0, half, SortKey::kSptrThenRid);
  exec::op::SortRun(*ex_, 0, rs, half, n - half, SortKey::kSptrThenRid);
  const std::vector<SRef> leaves = Refs(rs, n);
  std::sort(want.begin(), want.begin() + half, LessSptrRid);
  std::sort(want.begin() + half, want.end(), LessSptrRid);
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_EQ(leaves[k].sptr, want[k].sptr) << "at " << k;
    ASSERT_EQ(leaves[k].r_id, want[k].r_id) << "at " << k;
  }
  ASSERT_TRUE(ex_->DeleteSegment(rs).ok());
}

}  // namespace
}  // namespace mmjoin
