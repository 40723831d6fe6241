#include "exec/temp_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

namespace mmjoin::exec {

namespace {

uint64_t OsPageSize() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

TempArena& TempArena::Global() {
  static TempArena* const arena = new TempArena(IdleCapFromRam());
  return *arena;
}

uint64_t TempArena::IdleCapFromRam() {
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  return pages > 0 ? static_cast<uint64_t>(pages) * OsPageSize() / 8 : 0;
}

TempArena::TempArena(uint64_t idle_cap_bytes) : cap_(idle_cap_bytes) {}

TempArena::~TempArena() { Trim(0); }

StatusOr<TempBlock> TempArena::Acquire(uint64_t bytes) {
  const uint64_t page = OsPageSize();
  const uint64_t len = std::max<uint64_t>(1, (bytes + page - 1) / page) * page;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = idle_.lower_bound(len);
    if (it != idle_.end()) {
      TempBlock block = it->second;
      idle_.erase(it);
      stats_.idle_bytes -= block.bytes;
      --stats_.idle_blocks;
      ++stats_.reuses;
      block.fresh = false;
      return block;
    }
  }
  void* base = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap of " + std::to_string(len) +
                           " bytes failed: " + std::strerror(errno));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.maps;
  }
  return TempBlock{static_cast<uint8_t*>(base), len, false, true};
}

void TempArena::Release(const TempBlock& block) {
  if (block.base == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_.emplace(block.bytes, block);
    stats_.idle_bytes += block.bytes;
    ++stats_.idle_blocks;
  }
  Trim(cap_);
}

void TempArena::Trim(uint64_t max_idle_bytes) {
  std::vector<TempBlock> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (stats_.idle_bytes > max_idle_bytes) {
      auto largest = std::prev(idle_.end());
      victims.push_back(largest->second);
      stats_.idle_bytes -= largest->second.bytes;
      --stats_.idle_blocks;
      ++stats_.unmaps;
      idle_.erase(largest);
    }
  }
  for (const TempBlock& b : victims) {
    if (::munmap(b.base, b.bytes) != 0) {
      std::perror("mmjoin: munmap of an idle temporary");
    }
  }
}

TempArenaStats TempArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mmjoin::exec
