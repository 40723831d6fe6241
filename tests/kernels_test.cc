// The cache-conscious dereference kernels and the paging-policy layer:
// batched kernels are bit-identical to one-at-a-time reference loops,
// every paging mode and prefetch distance of the real joins produces the
// identical verified count/checksum, and segment advice reports errors
// without ever affecting results. The driver x schedule x workers x paging
// identity matrix lives in real_backend_test.
#include "exec/kernels.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment.h"
#include "rel/relation.h"
#include "scratch_dir.h"

namespace mmjoin::exec {
namespace {

// ---------------------------------------------------------------------------
// Kernel unit tests: pipelined == scalar, bit for bit.
// ---------------------------------------------------------------------------

const rel::SObject* Target(const rel::SObject* const* parts, uint64_t sptr) {
  const rel::SPtr sp = rel::SPtr::Unpack(sptr);
  return parts[sp.partition] + sp.index;
}

/// Scalar reference for ProbeRefs: no prefetch, no staging.
KernelTally ScalarProbeRefs(const SRef* refs, uint64_t n,
                            const rel::SObject* const* parts) {
  KernelTally t;
  for (uint64_t k = 0; k < n; ++k) {
    t.digest +=
        rel::OutputDigest(refs[k].r_id, Target(parts, refs[k].sptr)->key);
    ++t.count;
  }
  return t;
}

/// Synthetic S partitions plus a ref stream covering them with repeats.
struct KernelFixture {
  std::vector<std::vector<rel::SObject>> parts;
  std::vector<const rel::SObject*> part_ptrs;
  std::vector<SRef> refs;

  explicit KernelFixture(uint64_t n_refs, uint32_t n_parts = 3,
                         uint64_t part_objects = 257) {
    parts.resize(n_parts);
    for (uint32_t p = 0; p < n_parts; ++p) {
      parts[p].resize(part_objects);
      for (uint64_t k = 0; k < part_objects; ++k) {
        parts[p][k].id = k;
        parts[p][k].key = rel::SKeyFor(p, k);
      }
      part_ptrs.push_back(parts[p].data());
    }
    for (uint64_t k = 0; k < n_refs; ++k) {
      // Deterministic scatter with repeats — the kernels must not assume
      // distinct targets.
      const uint32_t p = static_cast<uint32_t>(rel::Mix64(k) % n_parts);
      const uint64_t idx = rel::Mix64(k * 31 + 7) % part_objects;
      const uint64_t sptr = rel::SPtr{p, idx}.Pack();
      refs.push_back(SRef{k, sptr});
    }
  }
};

TEST(KernelsTest, ProbeRefsMatchesScalarAcrossDistances) {
  const KernelFixture f(10000);
  const KernelTally scalar =
      ScalarProbeRefs(f.refs.data(), f.refs.size(), f.part_ptrs.data());
  EXPECT_EQ(scalar.count, f.refs.size());
  // 0 resolves to the default; oversized distances clamp.
  for (uint32_t distance : {0u, 1u, 7u, 32u, 256u, 100000u}) {
    KernelTally pipelined;
    ProbeRefs(f.refs.data(), f.refs.size(), f.part_ptrs.data(), distance,
              &pipelined);
    EXPECT_EQ(pipelined.count, scalar.count) << "distance=" << distance;
    EXPECT_EQ(pipelined.digest, scalar.digest) << "distance=" << distance;
    EXPECT_EQ(pipelined.requests, f.refs.size());
    EXPECT_EQ(pipelined.batches, 1u);
  }
}

TEST(KernelsTest, EmptyAndShorterThanDistanceBatches) {
  const KernelFixture f(5);
  KernelTally t;
  ProbeRefs(f.refs.data(), 0, f.part_ptrs.data(), 32, &t);
  EXPECT_EQ(t.count, 0u);
  EXPECT_EQ(t.digest, 0u);
  EXPECT_EQ(t.batches, 1u);
  // n < distance: the whole batch drains through the epilogue.
  const KernelTally scalar =
      ScalarProbeRefs(f.refs.data(), f.refs.size(), f.part_ptrs.data());
  KernelTally pipelined;
  ProbeRefs(f.refs.data(), f.refs.size(), f.part_ptrs.data(), 32, &pipelined);
  EXPECT_EQ(pipelined.count, scalar.count);
  EXPECT_EQ(pipelined.digest, scalar.digest);
}

TEST(KernelsTest, TalliesAccumulateAcrossBatches) {
  const KernelFixture f(1000);
  KernelTally t;
  ProbeRefs(f.refs.data(), 400, f.part_ptrs.data(), 16, &t);
  ProbeRefs(f.refs.data() + 400, 600, f.part_ptrs.data(), 16, &t);
  const KernelTally whole =
      ScalarProbeRefs(f.refs.data(), 1000, f.part_ptrs.data());
  EXPECT_EQ(t.count, whole.count);
  EXPECT_EQ(t.digest, whole.digest);
  EXPECT_EQ(t.requests, 1000u);
  EXPECT_EQ(t.batches, 2u);
}

// ---------------------------------------------------------------------------
// Identity across the real joins: every paging mode and prefetch distance
// must produce the same verified count/checksum.
// ---------------------------------------------------------------------------

class KernelJoinIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  mm::MmWorkload Build(double theta) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = 8192;
    rc.num_partitions = 8;
    rc.zipf_theta = theta;
    auto w = mm::BuildMmWorkload(mgr_.get(), "w" + std::to_string(builds_++),
                                 rc);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return std::move(w).value();
  }

  ScratchDir scratch_{"kernels"};
  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
  int builds_ = 0;
};

using MmJoinFn = StatusOr<mm::MmJoinResult> (*)(const mm::MmWorkload&,
                                                const mm::MmJoinOptions&);
constexpr MmJoinFn kJoins[] = {mm::MmNestedLoops, mm::MmSortMerge,
                               mm::MmGrace, mm::MmHybridHash};

TEST_F(KernelJoinIdentityTest, PagingModeSweep) {
  const mm::MmWorkload w = Build(1.1);
  for (MmJoinFn join : kJoins) {
    for (PagingMode paging : {PagingMode::kNone, PagingMode::kAdvise}) {
      mm::MmJoinOptions opt;
      opt.paging = paging;
      auto r = join(w, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified) << "paging=" << PagingModeName(paging);
      EXPECT_EQ(r->output_count, w.expected_output_count);
      EXPECT_EQ(r->output_checksum, w.expected_checksum);
      if (paging == PagingMode::kNone) {
        EXPECT_EQ(r->run.paging_advise_calls, 0u);
      } else {
        EXPECT_GT(r->run.paging_advise_calls, 0u);
        EXPECT_TRUE(r->paging_status.ok())
            << r->paging_status.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Segment-advice error paths.
// ---------------------------------------------------------------------------

TEST(SegmentAdviseTest, UnmappedBaseIsInvalidArgument) {
  const Status st =
      mm::AdviseMappedRange(nullptr, 4096, 0, 4096, AccessIntent::kRandom);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SegmentAdviseTest, OutOfRangeIsInvalidArgument) {
  alignas(4096) static char buf[4096];
  EXPECT_EQ(mm::AdviseMappedRange(buf, 4096, 4096, 1,
                                  AccessIntent::kSequential)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mm::AdviseMappedRange(buf, 4096, 0, 8192,
                                  AccessIntent::kSequential)
                .code(),
            StatusCode::kInvalidArgument);
  // Zero length is trivially fine.
  uint64_t advised = 42;
  EXPECT_TRUE(mm::AdviseMappedRange(buf, 4096, 100, 0,
                                    AccessIntent::kSequential, &advised)
                  .ok());
  EXPECT_EQ(advised, 0u);
}

class SegmentAdviseFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(scratch_.created()) << scratch_.path();
    dir_ = scratch_.path();
  }
  ScratchDir scratch_{"advise"};
  std::string dir_;
};

TEST_F(SegmentAdviseFileTest, AdviseOnRealSegmentReportsBytes) {
  auto seg = mm::Segment::Create(dir_ + "/s", 1 << 20);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  uint64_t advised = 0;
  ASSERT_TRUE(seg->Advise(AccessIntent::kSequential, &advised).ok());
  EXPECT_GE(advised, uint64_t{1} << 20);
  advised = 0;
  ASSERT_TRUE(
      seg->AdviseRange(8192, 4096, AccessIntent::kWillNeed, &advised).ok());
  EXPECT_GT(advised, 0u);
  // A sub-page kDontNeed narrows inward to nothing rather than discarding a
  // boundary page a neighbor may still need.
  advised = 42;
  ASSERT_TRUE(
      seg->AdviseRange(100, 64, AccessIntent::kDontNeed, &advised).ok());
  EXPECT_EQ(advised, 0u);
  ASSERT_TRUE(seg->Close().ok());
  // Advice on a closed (unmapped) segment is an error, not a crash.
  EXPECT_EQ(seg->Advise(AccessIntent::kRandom).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(mm::Segment::Delete(dir_ + "/s").ok());
}

}  // namespace
}  // namespace mmjoin::exec
