#include "mmap/segment_manager.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "scratch_dir.h"

namespace mmjoin::mm {
namespace {

class SegmentManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
  }

  ScratchDir scratch_{"segmgr"};
  std::string dir_;
};

TEST_F(SegmentManagerTest, CreateOpenDeleteLifecycle) {
  SegmentManager mgr(dir_);
  EXPECT_FALSE(mgr.Exists("data"));
  auto seg = mgr.CreateSegment("data", 1 << 20);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  ASSERT_TRUE(seg->Close().ok());
  EXPECT_TRUE(mgr.Exists("data"));
  auto seg2 = mgr.OpenSegment("data");
  ASSERT_TRUE(seg2.ok());
  EXPECT_EQ(seg2->size(), 1u << 20);
  ASSERT_TRUE(seg2->Close().ok());
  ASSERT_TRUE(mgr.DeleteSegment("data").ok());
  EXPECT_FALSE(mgr.Exists("data"));
}

TEST_F(SegmentManagerTest, SamplesRecordAllThreePrimitives) {
  SegmentManager mgr(dir_);
  auto seg = mgr.CreateSegment("s", 1 << 20);
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(seg->Close().ok());
  auto seg2 = mgr.OpenSegment("s");
  ASSERT_TRUE(seg2.ok());
  ASSERT_TRUE(seg2->Close().ok());
  ASSERT_TRUE(mgr.DeleteSegment("s").ok());

  ASSERT_EQ(mgr.samples().size(), 3u);
  EXPECT_GT(mgr.samples()[0].new_map_s, 0.0);
  EXPECT_GT(mgr.samples()[1].open_map_s, 0.0);
  EXPECT_GT(mgr.samples()[2].delete_map_s, 0.0);
  // Sizes are carried through, including on delete.
  EXPECT_EQ(mgr.samples()[2].bytes, 1ull << 20);
  mgr.ClearSamples();
  EXPECT_TRUE(mgr.samples().empty());
}

TEST_F(SegmentManagerTest, OpenMissingFails) {
  SegmentManager mgr(dir_);
  EXPECT_EQ(mgr.OpenSegment("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.DeleteSegment("ghost").code(), StatusCode::kNotFound);
}

TEST_F(SegmentManagerTest, SealedBatchVerifiesEveryChunkOfEverySegment) {
  // Three sealed segments of 1, 2.5 and 3 chunks of payload, opened as one
  // batch: their chunks spread over the worker threads. A byte flipped in
  // the last chunk of the middle one is refused, naming it.
  SegmentManager mgr(dir_);
  const uint64_t chunk = kChecksumChunkBytes;
  const std::vector<std::string> names = {"a", "b", "c"};
  const uint64_t payloads[] = {chunk, 5 * chunk / 2, 3 * chunk};
  for (size_t i = 0; i < names.size(); ++i) {
    auto seg = mgr.CreateSegment(names[i], sizeof(SegmentHeader) + payloads[i]);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    auto off = seg->Allocate(payloads[i]);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    auto* bytes = static_cast<unsigned char*>(seg->Resolve(*off));
    for (uint64_t k = 0; k < payloads[i]; ++k) bytes[k] = (k * 31 + i) >> 3;
    ASSERT_TRUE(seg->Seal().ok());
  }
  auto segs = mgr.OpenSealedSegments(names);
  ASSERT_TRUE(segs.ok()) << segs.status().ToString();
  ASSERT_EQ(segs->size(), 3u);

  auto* victim = static_cast<unsigned char*>(
      (*segs)[1].Resolve(sizeof(SegmentHeader) + 2 * chunk + 7));
  *victim ^= 0x10;
  auto torn = mgr.OpenSealedSegments(names);
  ASSERT_FALSE(torn.ok());
  EXPECT_NE(torn.status().ToString().find("payload checksum"),
            std::string::npos)
      << torn.status().ToString();
  EXPECT_NE(torn.status().ToString().find(mgr.PathFor("b")), std::string::npos)
      << torn.status().ToString();
  *victim ^= 0x10;
  EXPECT_TRUE(mgr.OpenSealedSegments(names).ok());
}

TEST_F(SegmentManagerTest, PathForIsStable) {
  SegmentManager mgr("/tmp/x");
  EXPECT_EQ(mgr.PathFor("abc"), "/tmp/x/abc.seg");
}

}  // namespace
}  // namespace mmjoin::mm
