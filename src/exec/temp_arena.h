// Process-wide arena of anonymous mappings for the real backend's join
// temporaries: RP/RS/Merge areas (index-NL sorts its RS_i in place, so
// its index needs no other), the sort-merge swap areas and MPSM's node
// bands.
//
// The paper charges every join a newMap/deleteMap per temporary. On a real
// host a fresh anonymous mapping costs an mmap(2), one fault per page and
// the kernel zeroing every page; the unmap costs the teardown. The arena
// pays that once per process instead of once per join:
//
//   Acquire   hands out the best-fitting idle block — the smallest one that
//             is large enough — and maps a fresh block only when none is.
//   Release   puts the block back on the idle list with its pages still
//             resident: no madvise(DONTNEED/FREE), no munmap.
//   Bound     idle bytes are capped (IdleCapFromRam(): 1/8 of physical
//             RAM for the process-wide arena); above the cap the largest
//             idle blocks are unmapped. Blocks in use do not count — they
//             belong to a running join.
//
// A reused block holds whatever its previous holder wrote. The drivers
// never read a temporary before writing it, so stale bytes are invisible
// (mmap_join_test's dirty-reuse identity test pins that).
//
// One arena serves every RealBackend of the process — in-process MmJoin
// callers and all of mmjoind's concurrent queries — so Acquire/Release are
// thread-safe; the syscalls run outside the lock.
#ifndef MMJOIN_EXEC_TEMP_ARENA_H_
#define MMJOIN_EXEC_TEMP_ARENA_H_

#include <cstdint>
#include <map>
#include <mutex>

#include "util/status.h"

namespace mmjoin::exec {

/// One anonymous read/write private mapping owned by a TempArena.
struct TempBlock {
  uint8_t* base = nullptr;
  uint64_t bytes = 0;      ///< mapping length, a multiple of the OS page size
  bool populated = false;  ///< every page known resident (pre-faulted)
  bool fresh = false;      ///< mapped by this Acquire, never handed out before
};

struct TempArenaStats {
  uint64_t maps = 0;    ///< Acquires that mapped a fresh block
  uint64_t reuses = 0;  ///< Acquires served from an idle block
  uint64_t unmaps = 0;  ///< idle blocks evicted with munmap
  uint64_t idle_blocks = 0;
  uint64_t idle_bytes = 0;
};

class TempArena {
 public:
  /// The process-wide arena, capped at IdleCapFromRam(). Never destroyed:
  /// backends may release into it during static destruction.
  static TempArena& Global();

  /// 1/8 of physical RAM — the idle-retention bound of Global().
  static uint64_t IdleCapFromRam();

  explicit TempArena(uint64_t idle_cap_bytes);
  ~TempArena();  ///< unmaps the idle blocks; blocks in use must be back

  TempArena(const TempArena&) = delete;
  TempArena& operator=(const TempArena&) = delete;

  /// A block of at least `bytes` (rounded up to whole pages, at least one).
  /// A fresh block starts unpopulated; a reused block is returned as it
  /// was released. A failing mmap is an IOError.
  StatusOr<TempBlock> Acquire(uint64_t bytes);

  /// Returns a block from Acquire to the idle list, pages resident, then
  /// evicts down to the cap.
  void Release(const TempBlock& block);

  /// Unmaps the largest idle blocks until at most `max_idle_bytes` stay.
  void Trim(uint64_t max_idle_bytes);

  uint64_t idle_cap_bytes() const { return cap_; }
  TempArenaStats stats() const;

 private:
  const uint64_t cap_;
  mutable std::mutex mu_;
  std::multimap<uint64_t, TempBlock> idle_;  ///< keyed by block bytes
  TempArenaStats stats_;                     ///< guarded by mu_
};

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_TEMP_ARENA_H_
