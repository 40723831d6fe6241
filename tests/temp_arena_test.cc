// The process-wide temporaries arena (exec/temp_arena.h): best-fit reuse
// hands back the retained mapping, a request no idle block fits maps a
// fresh one, idle bytes stay under the cap with munmap eviction of the
// largest blocks, and concurrent acquire/release never hands one block to
// two holders.
#include "exec/temp_arena.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace mmjoin::exec {
namespace {

const uint64_t kPage = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));

// mincore(2) fails with ENOMEM on a range that is not mapped; on a mapped
// one it reports per-page residency.
bool Mapped(const TempBlock& b) {
  std::vector<unsigned char> vec(b.bytes / kPage);
  return ::mincore(b.base, b.bytes, vec.data()) == 0;
}

bool Resident(const TempBlock& b) {
  std::vector<unsigned char> vec(b.bytes / kPage);
  if (::mincore(b.base, b.bytes, vec.data()) != 0) return false;
  for (unsigned char v : vec) {
    if ((v & 1) == 0) return false;
  }
  return true;
}

TempBlock MustAcquire(TempArena& arena, uint64_t bytes) {
  StatusOr<TempBlock> b = arena.Acquire(bytes);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  return b.ok() ? *b : TempBlock{};
}

TEST(TempArenaTest, BestFitReuseReturnsRetainedBase) {
  TempArena arena(1 << 20);
  const TempBlock small = MustAcquire(arena, 4 * kPage);
  const TempBlock large = MustAcquire(arena, 16 * kPage);
  ASSERT_NE(small.base, nullptr);
  ASSERT_NE(large.base, nullptr);
  EXPECT_TRUE(small.fresh);
  EXPECT_EQ(small.bytes, 4 * kPage);
  for (uint64_t off = 0; off < small.bytes; off += kPage) small.base[off] = 7;
  arena.Release(small);
  arena.Release(large);
  EXPECT_EQ(arena.stats().idle_blocks, 2u);

  // 3 pages: both idle blocks fit, the 4-page one fits best. It comes back
  // with its pages still resident and its old bytes in place.
  const TempBlock again = MustAcquire(arena, 3 * kPage);
  EXPECT_EQ(again.base, small.base);
  EXPECT_EQ(again.bytes, small.bytes);
  EXPECT_FALSE(again.fresh);
  EXPECT_TRUE(Resident(again));
  EXPECT_EQ(again.base[0], 7);
  // 5 pages: only the 16-page block fits.
  const TempBlock big_again = MustAcquire(arena, 5 * kPage);
  EXPECT_EQ(big_again.base, large.base);

  const TempArenaStats st = arena.stats();
  EXPECT_EQ(st.maps, 2u);
  EXPECT_EQ(st.reuses, 2u);
  EXPECT_EQ(st.idle_blocks, 0u);
  arena.Release(again);
  arena.Release(big_again);
}

TEST(TempArenaTest, RequestLargerThanEveryIdleBlockMapsFresh) {
  TempArena arena(1 << 20);
  const TempBlock a = MustAcquire(arena, 4 * kPage);
  arena.Release(a);
  const TempBlock b = MustAcquire(arena, 4 * kPage + 1);
  EXPECT_TRUE(b.fresh);
  EXPECT_NE(b.base, a.base);
  EXPECT_EQ(b.bytes, 5 * kPage);
  // The smaller block stays idle and mapped.
  EXPECT_TRUE(Mapped(a));
  const TempArenaStats st = arena.stats();
  EXPECT_EQ(st.maps, 2u);
  EXPECT_EQ(st.reuses, 0u);
  EXPECT_EQ(st.idle_blocks, 1u);
  EXPECT_EQ(st.idle_bytes, a.bytes);
  arena.Release(b);
}

TEST(TempArenaTest, PopulatedFlagTravelsWithTheBlock) {
  TempArena arena(1 << 20);
  TempBlock a = MustAcquire(arena, 8 * kPage);
  EXPECT_TRUE(a.fresh);
  EXPECT_FALSE(a.populated);
  // The holder fills every page and hands the block back marked, as
  // RealBackend::DeleteSegment does after a POPULATE_WRITE intent.
  for (uint64_t off = 0; off < a.bytes; off += kPage) a.base[off] = 1;
  a.populated = true;
  arena.Release(a);
  const TempBlock b = MustAcquire(arena, 8 * kPage);
  EXPECT_EQ(b.base, a.base);
  EXPECT_FALSE(b.fresh);
  EXPECT_TRUE(b.populated);
  EXPECT_TRUE(Resident(b));
  arena.Release(b);
  const TempBlock c = MustAcquire(arena, 9 * kPage);
  EXPECT_TRUE(c.fresh);
  EXPECT_FALSE(c.populated);
  arena.Release(c);
}

TEST(TempArenaTest, IdleBytesNeverExceedCapAndEvictionUnmaps) {
  const uint64_t cap = 10 * kPage;
  TempArena arena(cap);
  const TempBlock b2 = MustAcquire(arena, 2 * kPage);
  const TempBlock b4 = MustAcquire(arena, 4 * kPage);
  const TempBlock b6 = MustAcquire(arena, 6 * kPage);
  arena.Release(b2);
  arena.Release(b4);
  EXPECT_EQ(arena.stats().idle_bytes, 6 * kPage);
  EXPECT_EQ(arena.stats().unmaps, 0u);
  // 12 pages idle would exceed the 10-page cap: the largest idle block,
  // the one just released, goes.
  arena.Release(b6);
  TempArenaStats st = arena.stats();
  EXPECT_LE(st.idle_bytes, cap);
  EXPECT_EQ(st.idle_bytes, 6 * kPage);
  EXPECT_EQ(st.unmaps, 1u);
  EXPECT_FALSE(Mapped(b6));
  EXPECT_TRUE(Mapped(b2));
  EXPECT_TRUE(Mapped(b4));

  // A block larger than the cap is never retained.
  const TempBlock huge = MustAcquire(arena, 11 * kPage);
  arena.Release(huge);
  EXPECT_FALSE(Mapped(huge));
  EXPECT_LE(arena.stats().idle_bytes, cap);

  arena.Trim(0);
  st = arena.stats();
  EXPECT_EQ(st.idle_bytes, 0u);
  EXPECT_EQ(st.idle_blocks, 0u);
  EXPECT_FALSE(Mapped(b2));
  EXPECT_FALSE(Mapped(b4));
}

TEST(TempArenaTest, ConcurrentAcquireReleaseNeverSharesABlock) {
  const uint64_t cap = 64 * kPage;
  TempArena arena(cap);
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  std::vector<int> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kRounds; ++k) {
        const uint64_t pages = 1 + (t * 7 + k) % 16;
        StatusOr<TempBlock> b = arena.Acquire(pages * kPage);
        if (!b.ok()) {
          ++bad[t];
          continue;
        }
        // Tag every page, yield, then check no other holder overwrote it.
        const auto tag = static_cast<uint8_t>(t + 1);
        for (uint64_t off = 0; off < b->bytes; off += kPage) {
          b->base[off] = tag;
        }
        std::this_thread::yield();
        for (uint64_t off = 0; off < b->bytes; off += kPage) {
          if (b->base[off] != tag) ++bad[t];
        }
        arena.Release(*b);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
  const TempArenaStats st = arena.stats();
  EXPECT_EQ(st.maps + st.reuses, uint64_t{kThreads} * kRounds);
  EXPECT_GT(st.reuses, 0u);
  EXPECT_LE(st.idle_bytes, cap);
}

TEST(TempArenaTest, GlobalArenaIsCappedByPhysicalRam) {
  const uint64_t cap = TempArena::IdleCapFromRam();
  EXPECT_GT(cap, 0u);
  EXPECT_EQ(TempArena::Global().idle_cap_bytes(), cap);
  EXPECT_EQ(&TempArena::Global(), &TempArena::Global());
}

}  // namespace
}  // namespace mmjoin::exec
