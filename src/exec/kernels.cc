#include "exec/kernels.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

namespace mmjoin::exec {

const char* PagingModeName(PagingMode paging) {
  switch (paging) {
    case PagingMode::kNone:
      return "none";
    case PagingMode::kAdvise:
      return "advise";
  }
  return "?";
}

namespace {

inline const rel::SObject* Target(const rel::SObject* const* parts,
                                  uint64_t packed_sptr) {
  const rel::SPtr sp = rel::SPtr::Unpack(packed_sptr);
  return parts[sp.partition] + sp.index;
}

inline uint32_t ClampDistance(uint32_t distance) {
  return std::min(std::max(distance, 1u), kMaxPrefetchDistance);
}

}  // namespace

void ProbeRefs(const SRef* refs, uint64_t n, const rel::SObject* const* parts,
               uint32_t distance, KernelTally* tally) {
  const uint64_t d = std::min<uint64_t>(ClampDistance(distance), n);
  uint64_t count = 0, digest = 0;
  // Prologue: put the first window of S lines in flight before consuming
  // anything, then steady-state one-prefetch-one-consume. The ref stream
  // itself is sequential (hardware prefetch covers it); only the S side
  // needs software help.
  for (uint64_t k = 0; k < d; ++k) {
    __builtin_prefetch(Target(parts, refs[k].sptr), 0, 3);
  }
  uint64_t k = 0;
  for (const uint64_t lim = n - d; k < lim; ++k) {
    __builtin_prefetch(Target(parts, refs[k + d].sptr), 0, 3);
    const rel::SObject* s = Target(parts, refs[k].sptr);
    digest += rel::OutputDigest(refs[k].r_id, s->key);
    ++count;
  }
  for (; k < n; ++k) {
    const rel::SObject* s = Target(parts, refs[k].sptr);
    digest += rel::OutputDigest(refs[k].r_id, s->key);
    ++count;
  }
  tally->count += count;
  tally->digest += digest;
  tally->requests += n;
  tally->prefetches += n;
  tally->batches += 1;
}

namespace {

/// Digit d < 8 is byte d of sptr (least significant first); with r_id,
/// digit 8 + d is byte d of r_id. Stable passes run least significant
/// first: r_id's bytes, then sptr's.
template <bool kWithRid>
void RadixSort(SRef* refs, uint64_t n) {
  constexpr int kDigits = kWithRid ? 16 : 8;
  auto digit = [](const SRef& e, int d) {
    const uint64_t word = d < 8 ? e.sptr : e.r_id;
    return static_cast<uint32_t>(word >> (8 * (d % 8))) & 0xff;
  };

  std::array<std::array<uint64_t, 256>, kDigits> hist{};
  for (uint64_t k = 0; k < n; ++k) {
    for (int d = 0; d < kDigits; ++d) ++hist[d][digit(refs[k], d)];
  }

  std::vector<SRef> scratch(n);
  SRef* src = refs;
  SRef* dst = scratch.data();
  for (int pass = 0; pass < kDigits; ++pass) {
    const int d = kWithRid ? (pass + 8) % 16 : pass;
    const std::array<uint64_t, 256>& h = hist[d];
    if (h[digit(src[0], d)] == n) continue;  // every key agrees on it
    std::array<uint64_t, 256> next;
    uint64_t sum = 0;
    for (uint32_t b = 0; b < 256; ++b) {
      next[b] = sum;
      sum += h[b];
    }
    for (uint64_t k = 0; k < n; ++k) dst[next[digit(src[k], d)]++] = src[k];
    std::swap(src, dst);
  }
  if (src != refs) std::memcpy(refs, src, n * sizeof(SRef));
}

}  // namespace

void RadixSortRefs(SRef* refs, uint64_t n, SortKey key) {
  if (n < 2) return;
  if (key == SortKey::kSptrThenRid) {
    RadixSort<true>(refs, n);
  } else {
    RadixSort<false>(refs, n);
  }
}

}  // namespace mmjoin::exec
