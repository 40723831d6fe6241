// Real mmap(2) single-level store: exact positioning, persistence across
// unmap/remap, and the newMap/openMap/deleteMap primitives.
#include "mmap/segment.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>

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

}  // namespace
}  // namespace mmjoin::mm
