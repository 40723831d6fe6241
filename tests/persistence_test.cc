// Durable-store round trips and crash recovery.
//
// The contract under test (mm_relation.h, segment.h): PersistMmWorkload
// seals every segment — data and index first, manifest LAST — with a
// generation + checksum header, and OpenMmWorkload reattaches through the
// verifying path. A clean store must reopen to the bit-identical join; a
// torn store (byte flip, or a process SIGKILLed mid-persist via the
// MMJOIN_PERSIST_CRASH hook) must be *refused* with a checksum error, not
// partially trusted.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/kernels.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment.h"
#include "mmap/segment_manager.h"
#include "rel/generator.h"
#include "scratch_dir.h"

namespace mmjoin {
namespace {

/// True when partition i of a persisted index is index-NL's layout over
/// S_i: leaves strictly ascending in (sptr, r_id), every sptr inside S_i.
bool ValidIndexPartition(const mm::MmWorkloadIndex& index,
                         const mm::MmWorkload& w, uint32_t i) {
  const auto* leaves = static_cast<const exec::SRef*>(index.bytes[i]);
  for (uint64_t k = 0; k < index.entries[i]; ++k) {
    const rel::SPtr sp = rel::SPtr::Unpack(leaves[k].sptr);
    if (sp.partition != i || sp.index >= w.s_count[i]) return false;
    if (k > 0 && std::pair(leaves[k - 1].sptr, leaves[k - 1].r_id) >=
                     std::pair(leaves[k].sptr, leaves[k].r_id)) {
      return false;
    }
  }
  return true;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  static rel::RelationConfig Shape(uint64_t n, uint32_t d, double theta,
                                   uint64_t seed) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = n;
    rc.num_partitions = d;
    rc.zipf_theta = theta;
    rc.seed = seed;
    return rc;
  }

  /// Builds + persists a store under `prefix`, returning the original
  /// workload (still mapped) for the "before" join.
  StatusOr<mm::MmWorkload> BuildStore(const rel::RelationConfig& rc,
                                      const std::string& prefix,
                                      mm::MsyncPolicy policy) {
    auto workload = mm::BuildMmWorkload(mgr_.get(), prefix, rc);
    if (!workload.ok()) return workload.status();
    MMJOIN_RETURN_NOT_OK(
        mm::PersistMmWorkload(mgr_.get(), prefix, &*workload, policy));
    return workload;
  }

  /// Flips one byte of the named segment file at `offset` on disk.
  void FlipByte(const std::string& name, uint64_t offset) {
    const std::string path = mgr_->PathFor(name);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }

  ScratchDir scratch_{"persist"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

TEST_F(PersistenceTest, RoundTripIdenticalJoin) {
  // Matrix: shapes x msync policies. Every cell must reopen from disk to
  // the same verified join the freshly built workload produced.
  struct Cell {
    rel::RelationConfig rc;
    mm::MsyncPolicy policy;
    const char* prefix;
  };
  const Cell cells[] = {
      {Shape(4096, 2, 0.0, 11), mm::MsyncPolicy::kNone, "rt_none"},
      {Shape(6000, 3, 0.7, 22), mm::MsyncPolicy::kAsync, "rt_async"},
      {Shape(2048, 2, 0.9, 33), mm::MsyncPolicy::kSync, "rt_sync"},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.prefix);
    auto built = BuildStore(cell.rc, cell.prefix, cell.policy);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    auto before = mm::MmGrace(*built);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_TRUE(before->verified);

    // Drop every mapping, then reattach purely from disk.
    built = Status::NotFound("dropped");
    auto reopened = mm::OpenMmWorkload(mgr_.get(), cell.prefix);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->config.r_objects, cell.rc.r_objects);
    EXPECT_EQ(reopened->config.num_partitions, cell.rc.num_partitions);

    auto after = mm::MmGrace(*reopened);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_TRUE(after->verified);
    EXPECT_EQ(before->output_count, after->output_count);
    EXPECT_EQ(before->output_checksum, after->output_checksum);
  }
}

TEST_F(PersistenceTest, ReopenedStoreRunsEveryDriver) {
  // The reopened workload is a full MmWorkload: all five drivers run and
  // verify against the persisted oracle expectations.
  const rel::RelationConfig rc = Shape(4096, 2, 0.5, 44);
  auto built = BuildStore(rc, "drv", mm::MsyncPolicy::kNone);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  built = Status::NotFound("dropped");

  auto w = mm::OpenMmWorkload(mgr_.get(), "drv");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  for (auto* fn : {&mm::MmNestedLoops, &mm::MmSortMerge, &mm::MmGrace,
                   &mm::MmHybridHash, &mm::MmIndexNestedLoops}) {
    auto result = fn(*w, mm::MmJoinOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->verified);
    EXPECT_EQ(result->output_count, w->expected_output_count);
    EXPECT_EQ(result->output_checksum, w->expected_checksum);
  }
  // The warm probe — index-NL's probe stage straight off the store's
  // persisted leaf arrays, no partition passes — must produce the same
  // verified join.
  auto warm = mm::MmIndexProbe(mgr_.get(), "drv", *w);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->verified);
  EXPECT_EQ(warm->output_count, w->expected_output_count);
  EXPECT_EQ(warm->output_checksum, w->expected_checksum);
  EXPECT_EQ(warm->run.index_probes, w->config.s_objects);
  EXPECT_GT(warm->run.index_entries, 0u);
}

TEST_F(PersistenceTest, JoinKeyIndexAttachesAndCovers) {
  // The persisted index is index-NL's: per S partition, the sorted leaf
  // array of every R object pointing into it (RS_i sorted in place). Its
  // entries match the counts, and its leaves are exactly R's (sptr, id)
  // pairs.
  const rel::RelationConfig rc = Shape(3000, 3, 0.8, 55);
  auto built = BuildStore(rc, "ix", mm::MsyncPolicy::kNone);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  auto index = mm::OpenMmWorkloadIndex(mgr_.get(), "ix", *built);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const uint32_t d = rc.num_partitions;
  ASSERT_EQ(index->entries.size(), d);
  std::vector<std::pair<uint64_t, uint64_t>> leaves, objects;
  for (uint32_t i = 0; i < d; ++i) {
    SCOPED_TRACE(i);
    uint64_t into_i = 0;
    for (uint32_t j = 0; j < d; ++j) into_i += built->counts[j][i];
    EXPECT_EQ(index->entries[i], into_i);
    EXPECT_TRUE(ValidIndexPartition(*index, *built, i));
    const auto* refs = static_cast<const exec::SRef*>(index->bytes[i]);
    for (uint64_t k = 0; k < index->entries[i]; ++k) {
      leaves.emplace_back(refs[k].sptr, refs[k].r_id);
    }
    const rel::RObject* r = built->RObjects(i);
    for (uint64_t k = 0; k < built->r_count[i]; ++k) {
      objects.emplace_back(r[k].sptr, r[k].id);
    }
  }
  // Every R object is present, once: the leaves concatenate to R's pairs
  // in sorted order.
  std::sort(objects.begin(), objects.end());
  EXPECT_EQ(leaves, objects);
}

TEST_F(PersistenceTest, IndexSurvivesProcessBoundary) {
  // Attach the persisted index in a fork()ed child — a genuinely different
  // process image — and validate it there. Segment offsets make this work
  // with zero relocation.
  const rel::RelationConfig rc = Shape(2000, 2, 0.3, 66);
  auto built = BuildStore(rc, "fork", mm::MsyncPolicy::kSync);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  built = Status::NotFound("dropped");
  mgr_.reset();  // child reopens everything from the directory

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: exit code communicates the failure site (0 = all good).
    mm::SegmentManager child_mgr(dir_);
    auto w = mm::OpenMmWorkload(&child_mgr, "fork");
    if (!w.ok()) ::_exit(2);
    auto index = mm::OpenMmWorkloadIndex(&child_mgr, "fork", *w);
    if (!index.ok()) ::_exit(3);
    uint64_t entries = 0;
    for (uint32_t i = 0; i < rc.num_partitions; ++i) {
      if (!ValidIndexPartition(*index, *w, i)) ::_exit(4);
      entries += index->entries[i];
    }
    if (entries != rc.r_objects) ::_exit(5);
    auto probe = mm::MmIndexProbe(&child_mgr, "fork", *w);
    if (!probe.ok() || !probe->verified) ::_exit(6);
    auto join = mm::MmIndexNestedLoops(*w);
    if (!join.ok() || !join->verified) ::_exit(7);
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

TEST_F(PersistenceTest, PointerPastItsSPartitionRefusedBeforeAnySeal) {
  // Persist builds the index through op::Partition, whose S-pointer check
  // refuses an R object pointing one past the end of its S partition —
  // the counts still agree — before a single segment seals.
  const rel::RelationConfig rc = Shape(4096, 4, 0.0, 111);
  auto w = mm::BuildMmWorkload(mgr_.get(), "bad", rc);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto* r1 = const_cast<rel::RObject*>(w->RObjects(1));
  const uint32_t p = rel::SPtr::Unpack(r1[7].sptr).partition;
  r1[7].sptr = rel::SPtr{p, w->s_count[p]}.Pack();

  const Status st = mm::PersistMmWorkload(mgr_.get(), "bad", &*w);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.ToString().find("R_1 object " + std::to_string(r1[7].id) +
                               " points past the end of S_" +
                               std::to_string(p)),
            std::string::npos)
      << st.ToString();
  EXPECT_FALSE(mgr_->Exists("bad_ix"));
  EXPECT_FALSE(mgr_->Exists("bad_meta"));
  for (uint32_t i = 0; i < rc.num_partitions; ++i) {
    EXPECT_FALSE(w->r_segs[i].sealed()) << i;
    EXPECT_FALSE(w->s_segs[i].sealed()) << i;
  }
}

TEST_F(PersistenceTest, HeaderCorruptionRejected) {
  const rel::RelationConfig rc = Shape(1024, 2, 0.0, 77);
  auto built = BuildStore(rc, "hdr", mm::MsyncPolicy::kSync);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  built = Status::NotFound("dropped");

  // Flip a byte inside the checksummed header prefix (the generation
  // field), past the magic so the failure is the checksum, not the magic.
  FlipByte("hdr_meta", offsetof(mm::SegmentHeader, generation));
  auto reopened = mm::OpenMmWorkload(mgr_.get(), "hdr");
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("checksum"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(PersistenceTest, PayloadCorruptionRejected) {
  const rel::RelationConfig rc = Shape(1024, 2, 0.0, 88);
  auto built = BuildStore(rc, "pay", mm::MsyncPolicy::kSync);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  built = Status::NotFound("dropped");

  // Flip a data byte well inside an R segment's object array.
  FlipByte("pay_r0", sizeof(mm::SegmentHeader) + 4096 + 17);
  auto reopened = mm::OpenMmWorkload(mgr_.get(), "pay");
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("checksum"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(PersistenceTest, UnsealedSegmentRejected) {
  // A plain (never-sealed) segment must be refused by the sealed path even
  // though its bytes are fine — clean=0 means "no checksum to trust".
  auto seg = mgr_->CreateSegment("raw_meta", 1 << 16);
  ASSERT_TRUE(seg.ok());
  auto opened = mgr_->OpenSealedSegment("raw_meta");
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().ToString().find("checksum"), std::string::npos)
      << opened.status().ToString();
}

TEST_F(PersistenceTest, CrashMidPersistLeavesStoreRefused) {
  // The CI crash-recovery scenario, in-process: a child arms
  // MMJOIN_PERSIST_CRASH and SIGKILLs itself partway through the seal
  // sequence. The parent must find the store refused, then rebuild it and
  // get the identical verified join.
  const rel::RelationConfig rc = Shape(2048, 2, 0.5, 99);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("MMJOIN_PERSIST_CRASH", "3", 1);
    mm::SegmentManager child_mgr(dir_);
    auto workload = mm::BuildMmWorkload(&child_mgr, "torn", rc);
    if (!workload.ok()) ::_exit(2);
    (void)mm::PersistMmWorkload(&child_mgr, "torn", &*workload,
                                mm::MsyncPolicy::kSync);
    ::_exit(7);  // the hook should have killed us before this
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "exit=" << WEXITSTATUS(wstatus);
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The manifest seals last, so the torn store must be refused...
  ASSERT_TRUE(mm::MmWorkloadStoreExists(*mgr_, "torn"));
  auto reopened = mm::OpenMmWorkload(mgr_.get(), "torn");
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("checksum"), std::string::npos)
      << reopened.status().ToString();

  // ...and a rebuild from scratch yields the identical verified join.
  ASSERT_TRUE(
      mm::DeleteMmWorkload(mgr_.get(), "torn", rc.num_partitions).ok());
  auto rebuilt = BuildStore(rc, "torn", mm::MsyncPolicy::kSync);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  rebuilt = Status::NotFound("dropped");
  auto w = mm::OpenMmWorkload(mgr_.get(), "torn");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto join = mm::MmIndexNestedLoops(*w);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_TRUE(join->verified);
}

TEST_F(PersistenceTest, GenerationAdvancesAcrossSeals) {
  // Each successful seal bumps the generation — re-persisting the same
  // store produces a strictly newer header.
  const rel::RelationConfig rc = Shape(512, 2, 0.0, 123);
  auto built = BuildStore(rc, "gen", mm::MsyncPolicy::kNone);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  auto seg = mgr_->OpenSealedSegment("gen_meta");
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_GE(seg->header()->generation, 1u);
  EXPECT_EQ(seg->header()->clean, 1u);
}

}  // namespace
}  // namespace mmjoin
