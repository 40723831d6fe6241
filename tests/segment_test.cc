// Real mmap(2) single-level store: exact positioning, persistence across
// unmap/remap, the newMap/openMap/deleteMap primitives, and the chunked
// segment checksum (serial Checksum64 against the parallel chunk pass).
#include "mmap/segment.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "scratch_dir.h"

namespace mmjoin::mm {
namespace {

class SegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  ScratchDir scratch_{"seg_test"};
  std::string dir_;
};

TEST_F(SegmentTest, CreateWriteReopenRead) {
  const std::string path = Path("a");
  {
    auto seg = Segment::Create(path, 1 << 20);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    auto off = seg->Allocate(64);
    ASSERT_TRUE(off.ok());
    std::memcpy(seg->Resolve(*off), "hello persistent world", 23);
    seg->set_root(*off);
    ASSERT_TRUE(seg->Sync().ok());
    ASSERT_TRUE(seg->Close().ok());
  }
  {
    auto seg = Segment::Open(path);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    ASSERT_NE(seg->root(), 0u);
    EXPECT_STREQ(static_cast<const char*>(seg->Resolve(seg->root())),
                 "hello persistent world");
  }
  ASSERT_TRUE(Segment::Delete(path).ok());
}

TEST_F(SegmentTest, CreateFailsIfExists) {
  const std::string path = Path("dup");
  auto a = Segment::Create(path, 65536);
  ASSERT_TRUE(a.ok());
  auto b = Segment::Create(path, 65536);
  EXPECT_EQ(b.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(SegmentTest, OpenMissingFails) {
  auto seg = Segment::Open(Path("nope"));
  EXPECT_EQ(seg.status().code(), StatusCode::kNotFound);
}

TEST_F(SegmentTest, DeleteMissingFails) {
  EXPECT_EQ(Segment::Delete(Path("nope")).code(), StatusCode::kNotFound);
}

TEST_F(SegmentTest, TooSmallRejected) {
  auto seg = Segment::Create(Path("tiny"), sizeof(SegmentHeader));
  EXPECT_EQ(seg.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, AllocateExhaustsAndAligns) {
  auto seg = Segment::Create(Path("full"), sizeof(SegmentHeader) + 64);
  ASSERT_TRUE(seg.ok());
  auto a = seg->Allocate(10);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a % 8, 0u);
  auto b = seg->Allocate(10);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b % 8, 0u);
  EXPECT_GT(*b, *a);
  auto c = seg->Allocate(1000);
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
}

struct Node {
  int value = 0;
  VPtr<Node> next;
};

TEST_F(SegmentTest, VPtrLinkedListSurvivesRemap) {
  const std::string path = Path("list");
  {
    auto seg = Segment::Create(path, 1 << 20);
    ASSERT_TRUE(seg.ok());
    // Build 1 -> 2 -> 3 with offset-valued pointers ("exact positioning":
    // nothing to swizzle when the segment moves).
    VPtr<Node> head;
    for (int v = 3; v >= 1; --v) {
      auto node = seg->New<Node>();
      ASSERT_TRUE(node.ok());
      node->get(*seg)->value = v;
      node->get(*seg)->next = head;
      head = *node;
    }
    seg->set_root(head.offset());
    ASSERT_TRUE(seg->Sync().ok());
  }
  {
    auto seg = Segment::Open(path);
    ASSERT_TRUE(seg.ok());
    VPtr<Node> cur(seg->root());
    std::vector<int> values;
    while (cur) {
      values.push_back(cur.get(*seg)->value);
      cur = cur.get(*seg)->next;
    }
    EXPECT_EQ(values, (std::vector<int>{1, 2, 3}));
  }
}

TEST_F(SegmentTest, VPtrNullSemantics) {
  VPtr<Node> null;
  EXPECT_TRUE(null.null());
  EXPECT_FALSE(null);
  auto seg = Segment::Create(Path("null"), 65536);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(null.get(*seg), nullptr);
}

TEST_F(SegmentTest, TimingsAccumulate) {
  MapTimings t;
  auto seg = Segment::Create(Path("timed"), 1 << 20, &t);
  ASSERT_TRUE(seg.ok());
  EXPECT_GT(t.new_map_s, 0.0);
  ASSERT_TRUE(seg->Close().ok());
  auto seg2 = Segment::Open(Path("timed"), &t);
  ASSERT_TRUE(seg2.ok());
  EXPECT_GT(t.open_map_s, 0.0);
  ASSERT_TRUE(seg2->Close().ok());
  ASSERT_TRUE(Segment::Delete(Path("timed"), &t).ok());
  EXPECT_GT(t.delete_map_s, 0.0);
}

TEST_F(SegmentTest, MoveTransfersOwnership) {
  auto seg = Segment::Create(Path("move"), 65536);
  ASSERT_TRUE(seg.ok());
  Segment moved = std::move(*seg);
  EXPECT_TRUE(moved.mapped());
  EXPECT_FALSE(seg->mapped());
  auto off = moved.Allocate(8);
  EXPECT_TRUE(off.ok());
}

TEST_F(SegmentTest, CorruptHeaderRejected) {
  const std::string path = Path("corrupt");
  {
    auto seg = Segment::Create(path, 65536);
    ASSERT_TRUE(seg.ok());
    seg->header()->magic = 0xdeadbeef;
    ASSERT_TRUE(seg->Sync().ok());
  }
  auto seg = Segment::Open(path);
  EXPECT_EQ(seg.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Checksum64 and ChecksumRanges.

constexpr uint64_t kChunk = kChecksumChunkBytes;
const uint64_t kSizes[] = {0,      1,          7,         8,
                           63,     64,         65,        kChunk - 1,
                           kChunk, kChunk + 1, 3 * kChunk + 5};

/// `bytes` pseudo-random bytes (xorshift64), so no two chunks, words or
/// lanes hold the same data.
std::vector<unsigned char> Noise(uint64_t bytes, uint64_t seed) {
  std::vector<unsigned char> out(bytes);
  uint64_t x = seed | 1;
  for (unsigned char& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x >> 32);
  }
  return out;
}

TEST(ChecksumTest, ParallelPassEqualsSerialAtEverySize) {
  const std::vector<unsigned char> data = Noise(3 * kChunk + 5, 1);
  std::vector<uint64_t> seen;
  for (const uint64_t bytes : kSizes) {
    SCOPED_TRACE(bytes);
    const uint64_t serial = Checksum64(data.data(), bytes);
    EXPECT_EQ(serial, Checksum64(data.data(), bytes));
    for (uint32_t workers = 1; workers <= 4; ++workers) {
      SCOPED_TRACE(workers);
      const std::vector<uint64_t> sums =
          ChecksumRanges({{data.data(), bytes}}, workers);
      ASSERT_EQ(sums.size(), 1u);
      EXPECT_EQ(sums[0], serial);
    }
    seen.push_back(serial);
  }
  // Prefixes of one buffer: every size reads differently.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(ChecksumTest, ByteCountSeparatesZeroTails) {
  // A zero-padded partial word and a whole zero word digest alike; only
  // the byte count folded in last tells 7 zero bytes from 8, or a
  // chunk-aligned zero tail from no tail.
  const std::vector<unsigned char> zeros(2 * kChunk + 16, 0);
  for (const auto& [a, b] : {std::pair<uint64_t, uint64_t>{7, 8},
                             {0, 1},
                             {63, 64},
                             {kChunk + 1, kChunk + 8},
                             {2 * kChunk + 9, 2 * kChunk + 16}}) {
    SCOPED_TRACE(std::to_string(a) + " vs " + std::to_string(b));
    EXPECT_NE(Checksum64(zeros.data(), a), Checksum64(zeros.data(), b));
  }
}

TEST(ChecksumTest, ParallelPassChecksumsSeveralRangesAtOnce) {
  const std::vector<unsigned char> data = Noise(8 * kChunk, 2);
  // Every size, each at an unaligned start of its own, plus a repeat of
  // the first range: the sums come back in range order.
  std::vector<ByteRange> ranges;
  uint64_t at = 3;
  for (const uint64_t bytes : kSizes) {
    ranges.push_back({data.data() + at, bytes});
    at += bytes % (kChunk / 2) + 11;
  }
  ranges.push_back(ranges.front());
  for (uint32_t workers = 1; workers <= 4; ++workers) {
    SCOPED_TRACE(workers);
    const std::vector<uint64_t> sums = ChecksumRanges(ranges, workers);
    ASSERT_EQ(sums.size(), ranges.size());
    for (size_t r = 0; r < ranges.size(); ++r) {
      EXPECT_EQ(sums[r], Checksum64(ranges[r].data, ranges[r].bytes)) << r;
    }
  }
  EXPECT_TRUE(ChecksumRanges({}).empty());
}

TEST(ChecksumTest, FlippedByteChangesTheChecksum) {
  const uint64_t bytes = 3 * kChunk + 5;
  std::vector<unsigned char> data = Noise(bytes, 3);
  const uint64_t clean = Checksum64(data.data(), bytes);
  // The first byte, both sides of the first chunk edge, and a byte of the
  // trailing partial word (the last 5 bytes).
  for (const uint64_t at : {uint64_t{0}, kChunk - 1, kChunk, bytes - 3}) {
    SCOPED_TRACE(at);
    data[at] ^= 0x5a;
    EXPECT_NE(Checksum64(data.data(), bytes), clean);
    EXPECT_NE(ChecksumRanges({{data.data(), bytes}}, 4)[0], clean);
    data[at] ^= 0x5a;
    EXPECT_EQ(Checksum64(data.data(), bytes), clean);
  }
}

TEST(ChecksumTest, SwappedChunksChangeTheChecksum) {
  const uint64_t bytes = 3 * kChunk + 5;
  std::vector<unsigned char> data = Noise(bytes, 4);
  const uint64_t clean = Checksum64(data.data(), bytes);
  for (const auto& [a, b] :
       {std::pair<uint64_t, uint64_t>{0, 1}, {1, 2}, {0, 2}}) {
    SCOPED_TRACE(std::to_string(a) + "<->" + std::to_string(b));
    std::swap_ranges(data.begin() + a * kChunk, data.begin() + (a + 1) * kChunk,
                     data.begin() + b * kChunk);
    EXPECT_NE(Checksum64(data.data(), bytes), clean);
    std::swap_ranges(data.begin() + a * kChunk, data.begin() + (a + 1) * kChunk,
                     data.begin() + b * kChunk);
  }
  EXPECT_EQ(Checksum64(data.data(), bytes), clean);
}

TEST_F(SegmentTest, SealedMultiChunkSegmentVerifies) {
  // A payload of 2 chunks and a partial one, sealed and verified through
  // the chunk pass; a byte flipped behind the header's back at the second
  // chunk edge is refused, and a fresh seal accepts it again.
  auto seg = Segment::Create(Path("multi"), 3 * kChunk);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  auto off = seg->Allocate(3 * kChunk - 2 * sizeof(SegmentHeader));
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  const std::vector<unsigned char> data =
      Noise(3 * kChunk - 2 * sizeof(SegmentHeader), 5);
  std::memcpy(seg->Resolve(*off), data.data(), data.size());
  ASSERT_TRUE(seg->Seal().ok());
  EXPECT_TRUE(seg->VerifySealed().ok()) << seg->VerifySealed().ToString();
  auto* edge = static_cast<unsigned char*>(seg->Resolve(sizeof(SegmentHeader) +
                                                       2 * kChunk));
  *edge ^= 1;
  const Status st = seg->VerifySealed();
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("payload checksum"), std::string::npos)
      << st.ToString();
  ASSERT_TRUE(seg->Seal().ok());
  EXPECT_TRUE(seg->VerifySealed().ok());
}

}  // namespace
}  // namespace mmjoin::mm
