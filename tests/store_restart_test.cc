// Warm restart of the durable store: the batch sealed open and the warm
// index probe.
//
// The contract under test (segment_manager.h, mm_relation.h, mmap_join.h):
//
//   * MmIndexProbe runs index-NL's probe stage over the persisted leaf
//     arrays. Count, checksum and every index counter are identical
//     serial, on two threads and at the defaults, and index_matches equals
//     the distinct S-pointers of R.
//   * The persisted index is byte-identical with and without a shared
//     pool and for any worker count, and an index that does not match the
//     store — another format's root, entries that disagree with the
//     counts, bytes outside the segment — is refused with a Status.
//   * OpenMmWorkload verifies all data segments as one batch. Every torn
//     segment is refused with a checksum error, and with several torn
//     segments the error always names the first in open order, however
//     the verifying threads finish.
//   * A sealed segment from another store is refused when it cannot hold
//     the manifest's objects; a same-size one attaches and the join's
//     oracle check reports the wrong answer.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "exec/kernels.h"
#include "exec/scheduler.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment.h"
#include "mmap/segment_manager.h"
#include "rel/relation.h"
#include "scratch_dir.h"

namespace mmjoin {
namespace {

class StoreRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  static rel::RelationConfig Shape(uint64_t r, uint64_t s, uint32_t d,
                                   double theta, uint64_t seed) {
    rel::RelationConfig rc;
    rc.r_objects = r;
    rc.s_objects = s;
    rc.num_partitions = d;
    rc.zipf_theta = theta;
    rc.seed = seed;
    return rc;
  }

  /// Builds and persists a store; every mapping is dropped on return, so
  /// later opens read the files alone.
  void Persist(const rel::RelationConfig& rc, const std::string& prefix) {
    auto w = mm::BuildMmWorkload(mgr_.get(), prefix, rc);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(mm::PersistMmWorkload(mgr_.get(), prefix, &*w).ok());
  }

  std::string Path(const std::string& name) const {
    return mgr_->PathFor(name);
  }

  /// XORs one byte of the named segment file on disk; flipping twice
  /// restores it.
  void FlipByte(const std::string& name, uint64_t offset) {
    std::FILE* f = std::fopen(Path(name).c_str(), "r+b");
    ASSERT_NE(f, nullptr) << name;
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }

  /// Offset of the last payload byte of a sealed segment (the byte the
  /// checksum reaches last).
  uint64_t LastPayloadByte(const std::string& name) {
    auto seg = mgr_->OpenSealedSegment(name);
    EXPECT_TRUE(seg.ok()) << seg.status().ToString();
    return seg.ok() ? seg->header()->bump - 1 : sizeof(mm::SegmentHeader);
  }

  /// Asserts the store is refused with a checksum error naming `name`.
  void ExpectRefused(const std::string& prefix, const std::string& name) {
    auto w = mm::OpenMmWorkload(mgr_.get(), prefix);
    ASSERT_FALSE(w.ok()) << "attached a store with a torn " << name;
    const std::string error = w.status().ToString();
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    EXPECT_NE(error.find(Path(name)), std::string::npos) << error;
  }

  ScratchDir scratch_{"restart"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

/// The distinct S-pointers of R, counted from the R objects: the
/// reference for index_matches.
uint64_t DistinctSPtrs(const mm::MmWorkload& w) {
  std::vector<uint64_t> sptrs;
  for (uint32_t i = 0; i < w.config.num_partitions; ++i) {
    const rel::RObject* r = w.RObjects(i);
    for (uint64_t k = 0; k < w.r_count[i]; ++k) sptrs.push_back(r[k].sptr);
  }
  std::sort(sptrs.begin(), sptrs.end());
  return static_cast<uint64_t>(
      std::unique(sptrs.begin(), sptrs.end()) - sptrs.begin());
}

TEST_F(StoreRestartTest, ProbeIdenticalAcrossWorkerCounts) {
  struct Cell {
    const char* prefix;
    rel::RelationConfig rc;
  };
  const Cell cells[] = {
      {"d1", Shape(4096, 4096, 1, 0.0, 5)},
      {"s_eighth", Shape(16384, 2048, 4, 0.0, 6)},
      {"s_double", Shape(4096, 8192, 4, 0.0, 7)},
      {"zipf", Shape(8192, 8192, 4, 1.1, 8)},
      // 32 R tuples, Zipf-concentrated on low S ids: the top S partitions
      // of 65,536 objects are never referenced (asserted below).
      {"cold_part", Shape(32, 65536, 8, 1.1, 9)},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.prefix);
    Persist(cell.rc, cell.prefix);
    auto w = mm::OpenMmWorkload(mgr_.get(), cell.prefix);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    const uint32_t d = cell.rc.num_partitions;
    if (std::string(cell.prefix) == "cold_part") {
      uint64_t into_last = 0;
      for (uint32_t i = 0; i < d; ++i) into_last += w->counts[i][d - 1];
      ASSERT_EQ(into_last, 0u) << "S_" << d - 1 << " is referenced";
    }
    const uint64_t hits = DistinctSPtrs(*w);

    mm::MmJoinOptions serial, two, defaults;
    serial.max_threads = 1;
    two.max_threads = 2;
    auto ref = mm::MmIndexProbe(mgr_.get(), cell.prefix, *w, serial);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_TRUE(ref->verified);
    EXPECT_EQ(ref->threads_used, 1u);
    EXPECT_EQ(ref->run.index_matches, hits);
    EXPECT_EQ(ref->run.index_probes, cell.rc.s_objects);
    for (const auto& [label, options, threads] :
         {std::tuple{"threads=2", two, std::min(d, 2u)},
          std::tuple{"defaults", defaults, exec::EffectiveWorkers(d, 0)}}) {
      SCOPED_TRACE(label);
      auto r = mm::MmIndexProbe(mgr_.get(), cell.prefix, *w, options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified);
      EXPECT_EQ(r->threads_used, threads);
      EXPECT_EQ(r->output_count, ref->output_count);
      EXPECT_EQ(r->output_checksum, ref->output_checksum);
      EXPECT_EQ(r->run.index_probes, ref->run.index_probes);
      EXPECT_EQ(r->run.index_matches, ref->run.index_matches);
      EXPECT_EQ(r->run.index_entries, ref->run.index_entries);
    }
  }
}

TEST_F(StoreRestartTest, TornSegmentsRefusedWithChecksumError) {
  const uint32_t d = 4;
  Persist(Shape(8192, 8192, d, 0.5, 21), "torn");
  const std::string last = std::to_string(d - 1);
  for (const std::string& name : std::vector<std::string>{
           "torn_s0", "torn_s" + last, "torn_r" + last, "torn_meta"}) {
    SCOPED_TRACE(name);
    // Data segments: the last payload byte, which the checksum reaches
    // last. `_meta`: a field of the manifest itself.
    const uint64_t at =
        name == "torn_meta"
            ? sizeof(mm::SegmentHeader) + offsetof(mm::StoreManifest, s_objects)
            : LastPayloadByte(name);
    FlipByte(name, at);
    ExpectRefused("torn", name);
    FlipByte(name, at);
    ASSERT_TRUE(mm::OpenMmWorkload(mgr_.get(), "torn").ok());
  }

  // A torn index is refused by the probe's attach.
  auto w = mm::OpenMmWorkload(mgr_.get(), "torn");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  FlipByte("torn_ix", sizeof(mm::SegmentHeader) + 8);
  auto probe = mm::MmIndexProbe(mgr_.get(), "torn", *w);
  ASSERT_FALSE(probe.ok());
  EXPECT_NE(probe.status().ToString().find("checksum"), std::string::npos)
      << probe.status().ToString();

  // Truncation keeps a verifying header that no longer matches the file.
  const std::string victim = "torn_r1";
  std::filesystem::resize_file(Path(victim),
                               std::filesystem::file_size(Path(victim)) / 2);
  ExpectRefused("torn", victim);
}

TEST_F(StoreRestartTest, FirstTornSegmentInOpenOrderIsReported) {
  // Two torn segments: `_s1` is refused only after its whole payload is
  // checksummed, `_r2` at its header — yet the batch must report `_s1`,
  // the first in open order (S before R), on every repeat.
  Persist(Shape(16384, 16384, 4, 0.0, 31), "two");
  FlipByte("two_s1", LastPayloadByte("two_s1"));
  FlipByte("two_r2", offsetof(mm::SegmentHeader, generation));
  for (int repeat = 0; repeat < 20; ++repeat) {
    SCOPED_TRACE(repeat);
    ExpectRefused("two", "two_s1");
  }
}

TEST_F(StoreRestartTest, BatchOpenReportsFirstFailureInNameOrder) {
  Persist(Shape(4096, 4096, 2, 0.0, 41), "b");
  // A missing segment after a torn one: the torn one comes first.
  const uint64_t at = LastPayloadByte("b_s0");
  FlipByte("b_s0", at);
  auto segs = mgr_->OpenSealedSegments({"b_r0", "b_s0", "b_missing", "b_r1"});
  ASSERT_FALSE(segs.ok());
  EXPECT_NE(segs.status().ToString().find(Path("b_s0")), std::string::npos)
      << segs.status().ToString();
  // With the torn one repaired, the missing one is the first failure.
  FlipByte("b_s0", at);
  segs = mgr_->OpenSealedSegments({"b_r0", "b_s0", "b_missing", "b_r1"});
  ASSERT_FALSE(segs.ok());
  EXPECT_EQ(segs.status().code(), StatusCode::kNotFound)
      << segs.status().ToString();
  // All present: every segment comes back, in name order.
  segs = mgr_->OpenSealedSegments({"b_r1", "b_meta", "b_s0"});
  ASSERT_TRUE(segs.ok()) << segs.status().ToString();
  ASSERT_EQ(segs->size(), 3u);
  EXPECT_EQ((*segs)[0].path(), Path("b_r1"));
  EXPECT_EQ((*segs)[1].path(), Path("b_meta"));
  EXPECT_EQ((*segs)[2].path(), Path("b_s0"));
}

TEST_F(StoreRestartTest, ForeignSegmentRefusedOrCaughtByOracle) {
  // A smaller sealed S segment from another store verifies on its own but
  // cannot hold the manifest's objects: refused, never probed.
  Persist(Shape(65536, 65536, 2, 0.0, 51), "a");
  Persist(Shape(1024, 1024, 2, 0.0, 52), "b");
  ASSERT_EQ(std::rename(Path("b_s1").c_str(), Path("a_s1").c_str()), 0);
  auto w = mm::OpenMmWorkload(mgr_.get(), "a");
  ASSERT_FALSE(w.ok()) << "attached a foreign S segment";
  EXPECT_EQ(w.status().code(), StatusCode::kIOError) << w.status().ToString();
  EXPECT_NE(w.status().ToString().find(Path("a_s1")), std::string::npos)
      << w.status().ToString();

  // A same-size R segment from a store with another seed attaches — its
  // counts match the manifest — and the join's oracle check catches the
  // wrong answer.
  Persist(Shape(4096, 4096, 1, 0.0, 61), "c");
  Persist(Shape(4096, 4096, 1, 0.0, 62), "e");
  ASSERT_EQ(std::rename(Path("e_r0").c_str(), Path("c_r0").c_str()), 0);
  auto swapped = mm::OpenMmWorkload(mgr_.get(), "c");
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  auto join = mm::MmNestedLoops(*swapped);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_FALSE(join->verified);
}

TEST_F(StoreRestartTest, IndexBytesIdenticalForEveryWorkerCount) {
  // The leaves are in (sptr, r_id) order, a total order, so `_ix` is the
  // same file whether persist runs on its own workers or on a shared pool
  // of one, two or four.
  const rel::RelationConfig rc = Shape(16384, 16384, 4, 1.1, 71);
  auto w = mm::BuildMmWorkload(mgr_.get(), "det", rc);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const auto ix_bytes = [&] {
    std::ifstream in(Path("det_ix"), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  ASSERT_TRUE(mm::PersistMmWorkload(mgr_.get(), "det", &*w).ok());
  const std::string reference = ix_bytes();
  ASSERT_GT(reference.size(), rc.r_objects * sizeof(exec::SRef));
  for (uint32_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    exec::SharedWorkerPool pool(workers);
    ASSERT_TRUE(mm::PersistMmWorkload(mgr_.get(), "det", &*w,
                                      mm::MsyncPolicy::kNone, &pool)
                    .ok());
    EXPECT_TRUE(ix_bytes() == reference);
  }
  auto probe = mm::MmIndexProbe(mgr_.get(), "det", *w);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(probe->verified);
}

TEST_F(StoreRestartTest, IndexRootRefusedUnlessItMatchesTheStore) {
  // Each edit below is sealed again, so the checksum passes and only the
  // root's own validation can refuse it — with a Status naming the store,
  // never a read outside the segment.
  const uint32_t d = 4;
  Persist(Shape(8192, 8192, d, 0.5, 81), "root");
  auto w = mm::OpenMmWorkload(mgr_.get(), "root");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const auto edit_and_probe = [&](const std::string& what, auto&& edit) {
    SCOPED_TRACE(what);
    {
      auto seg = mgr_->OpenSegment("root_ix");
      ASSERT_TRUE(seg.ok()) << seg.status().ToString();
      auto* root = static_cast<mm::StoreIndexRoot*>(seg->Resolve(seg->root()));
      edit(root, reinterpret_cast<mm::StoreIndexPartition*>(root + 1),
           seg->header()->bump);
      ASSERT_TRUE(seg->Seal().ok());
    }
    auto probe = mm::MmIndexProbe(mgr_.get(), "root", *w);
    ASSERT_FALSE(probe.ok());
    EXPECT_EQ(probe.status().code(), StatusCode::kIOError)
        << probe.status().ToString();
    EXPECT_NE(probe.status().ToString().find("root"), std::string::npos)
        << probe.status().ToString();
    // Persist again for the next edit.
    w = Status::NotFound("dropped");
    ASSERT_TRUE(mm::DeleteMmWorkload(mgr_.get(), "root", d).ok());
    Persist(Shape(8192, 8192, d, 0.5, 81), "root");
    w = mm::OpenMmWorkload(mgr_.get(), "root");
    ASSERT_TRUE(w.ok()) << w.status().ToString();
  };
  // A store persisted before this layout: its root was a B+-tree meta
  // block, which starts with the tree's own magic ("btreemm1").
  edit_and_probe("old-format root",
                 [](mm::StoreIndexRoot* root, mm::StoreIndexPartition*,
                    uint64_t) { root->magic = 0x62747265656d6d31ULL; });
  // A version-1 root: its leaf arrays were followed by key levels. Every
  // other field still matches the store, so only the version refuses it.
  edit_and_probe("version-1 root",
                 [](mm::StoreIndexRoot* root, mm::StoreIndexPartition*,
                    uint64_t) { root->version = 1; });
  edit_and_probe("entries disagree with the counts",
                 [](mm::StoreIndexRoot*, mm::StoreIndexPartition* parts,
                    uint64_t) { ++parts[1].entries; });
  edit_and_probe("partition bytes past the bump",
                 [](mm::StoreIndexRoot*, mm::StoreIndexPartition* parts,
                    uint64_t bump) {
                   parts[d - 1].byte_off = (bump + 8) & ~uint64_t{7};
                 });
  edit_and_probe("partition count disagrees",
                 [](mm::StoreIndexRoot* root, mm::StoreIndexPartition*,
                    uint64_t) { root->num_partitions = d + 1; });
  // Untouched, the same store probes correctly.
  auto probe = mm::MmIndexProbe(mgr_.get(), "root", *w);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(probe->verified);
}

}  // namespace
}  // namespace mmjoin
