#include "mmap/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "exec/scheduler.h"

namespace mmjoin::mm {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// SplitMix64 finalizer — the same mixer rel::Mix64 uses, local so the
/// mmap layer does not depend on rel.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr uint64_t kChecksumSeed = 0x6d6d6a6f696e6373ULL;  // "mmjoincs"
constexpr uint32_t kLanes = 8;

uint64_t LoadWord(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

/// One chunk (at most kChecksumChunkBytes) through Checksum64's 8 lanes.
/// The lanes are independent dependency chains, so a core overlaps their
/// multiplies instead of waiting on one chain.
uint64_t DigestChunk(const ByteRange& chunk) {
  const auto* p = static_cast<const unsigned char*>(chunk.data);
  uint64_t bytes = chunk.bytes;
  uint64_t lane[kLanes];
  for (uint32_t l = 0; l < kLanes; ++l) lane[l] = kChecksumSeed + l;
  for (; bytes >= 8 * kLanes; p += 8 * kLanes, bytes -= 8 * kLanes) {
#pragma GCC unroll 8
    for (uint32_t l = 0; l < kLanes; ++l) {
      lane[l] = Mix(lane[l] ^ LoadWord(p + 8 * l));
    }
  }
  uint64_t acc = kChecksumSeed;
  for (uint32_t l = 0; l < kLanes; ++l) acc = Mix(acc ^ lane[l]);
  for (; bytes >= 8; p += 8, bytes -= 8) acc = Mix(acc ^ LoadWord(p));
  if (bytes > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, bytes);
    acc = Mix(acc ^ word);
  }
  return acc;
}

/// Every chunk of every range, in range and chunk order.
std::vector<ByteRange> Chunks(const std::vector<ByteRange>& ranges) {
  std::vector<ByteRange> chunks;
  for (const ByteRange& range : ranges) {
    const auto* p = static_cast<const unsigned char*>(range.data);
    for (uint64_t at = 0; at < range.bytes; at += kChecksumChunkBytes) {
      chunks.push_back(
          {p + at, std::min(kChecksumChunkBytes, range.bytes - at)});
    }
  }
  return chunks;
}

/// Each range's checksum from the digests of Chunks(ranges): its chunk
/// digests folded in chunk order, then its byte count.
std::vector<uint64_t> FoldRanges(const std::vector<ByteRange>& ranges,
                                 const std::vector<uint64_t>& digests) {
  std::vector<uint64_t> sums;
  sums.reserve(ranges.size());
  auto digest = digests.begin();
  for (const ByteRange& range : ranges) {
    uint64_t acc = kChecksumSeed;
    for (uint64_t at = 0; at < range.bytes; at += kChecksumChunkBytes) {
      acc = Mix(acc ^ *digest++);
    }
    sums.push_back(Mix(acc ^ range.bytes));
  }
  return sums;
}

/// The header checksum covers every field before `header_checksum` itself.
uint64_t HeaderChecksum(const SegmentHeader& h) {
  return Checksum64(&h, offsetof(SegmentHeader, header_checksum));
}

}  // namespace

uint64_t Checksum64(const void* data, uint64_t bytes) {
  const std::vector<ByteRange> ranges = {{data, bytes}};
  std::vector<uint64_t> digests;
  for (const ByteRange& chunk : Chunks(ranges)) {
    digests.push_back(DigestChunk(chunk));
  }
  return FoldRanges(ranges, digests).front();
}

std::vector<uint64_t> ChecksumRanges(const std::vector<ByteRange>& ranges,
                                     uint32_t max_threads) {
  const std::vector<ByteRange> chunks = Chunks(ranges);
  std::vector<uint64_t> digests(chunks.size());
  const auto units = static_cast<uint32_t>(chunks.size());
  exec::ParallelFor(units, exec::EffectiveWorkers(units, max_threads),
                    [&](uint32_t u) { digests[u] = DigestChunk(chunks[u]); });
  return FoldRanges(ranges, digests);
}

double ResidentFraction(const void* base, uint64_t bytes) {
  if (base == nullptr || bytes == 0) return 1.0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 1.0;
  const uint64_t page_bytes = static_cast<uint64_t>(page);
  // mincore wants a page-aligned start; round the range outward.
  const uintptr_t addr = reinterpret_cast<uintptr_t>(base);
  const uintptr_t start = addr & ~(page_bytes - 1);
  const uint64_t span = (addr + bytes) - start;
  const uint64_t pages = (span + page_bytes - 1) / page_bytes;
  std::vector<unsigned char> vec(pages);
  if (::mincore(reinterpret_cast<void*>(start), span, vec.data()) != 0) {
    return 1.0;
  }
  uint64_t resident = 0;
  for (unsigned char v : vec) resident += v & 1;
  return static_cast<double>(resident) / static_cast<double>(pages);
}

const char* MsyncPolicyName(MsyncPolicy policy) {
  switch (policy) {
    case MsyncPolicy::kNone:
      return "none";
    case MsyncPolicy::kAsync:
      return "async";
    case MsyncPolicy::kSync:
      return "sync";
  }
  return "?";
}

StatusOr<MsyncPolicy> ParseMsyncPolicy(const std::string& name) {
  if (name == "none") return MsyncPolicy::kNone;
  if (name == "async") return MsyncPolicy::kAsync;
  if (name == "sync") return MsyncPolicy::kSync;
  return Status::InvalidArgument("unknown msync policy: " + name +
                                 " (want none|async|sync)");
}

const char* AccessIntentName(AccessIntent intent) {
  switch (intent) {
    case AccessIntent::kSequential:
      return "sequential";
    case AccessIntent::kRandom:
      return "random";
    case AccessIntent::kWillNeed:
      return "willneed";
    case AccessIntent::kDontNeed:
      return "dontneed";
    case AccessIntent::kPopulateWrite:
      return "populate-write";
  }
  return "?";
}

// MADV_POPULATE_WRITE is linux 5.14+; compile against older headers too and
// let the runtime EINVAL fallback below handle older kernels.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

Status AdviseMappedRange(void* map_base, uint64_t map_bytes, uint64_t offset,
                         uint64_t length, AccessIntent intent,
                         uint64_t* advised_bytes) {
  if (advised_bytes != nullptr) *advised_bytes = 0;
  if (map_base == nullptr) {
    return Status::InvalidArgument("advise on an unmapped segment");
  }
  if (offset > map_bytes || length > map_bytes - offset) {
    return Status::InvalidArgument(
        "advise range [" + std::to_string(offset) + ", +" +
        std::to_string(length) + ") exceeds mapping of " +
        std::to_string(map_bytes) + " bytes");
  }
  if (length == 0) return Status::OK();

  int advice = 0;
  switch (intent) {
    case AccessIntent::kSequential:
      advice = MADV_SEQUENTIAL;
      break;
    case AccessIntent::kRandom:
      advice = MADV_RANDOM;
      break;
    case AccessIntent::kWillNeed:
      advice = MADV_WILLNEED;
      break;
    case AccessIntent::kDontNeed:
      advice = MADV_DONTNEED;
      break;
    case AccessIntent::kPopulateWrite:
      advice = MADV_POPULATE_WRITE;
      break;
  }

  // madvise requires a page-aligned start. Hints widen outward — a mapping
  // always covers whole pages, so widening stays inside it and advising a
  // few extra bytes is harmless. kDontNeed is the exception: on anonymous
  // memory it DISCARDS pages, so a partial boundary page shared with a
  // neighboring still-live range must be left alone — narrow inward, and a
  // sub-page range degenerates to an (advised = 0) no-op.
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t raw_begin = reinterpret_cast<uintptr_t>(map_base) + offset;
  const uintptr_t raw_end = raw_begin + length;
  uintptr_t begin, end;
  if (intent == AccessIntent::kDontNeed) {
    begin = (raw_begin + page - 1) & ~(page - 1);
    end = raw_end & ~(page - 1);
    if (begin >= end) return Status::OK();
  } else {
    begin = raw_begin & ~(page - 1);
    end = (raw_end + page - 1) & ~(page - 1);
  }
  if (::madvise(reinterpret_cast<void*>(begin), end - begin, advice) != 0) {
    if (intent == AccessIntent::kPopulateWrite && errno == EINVAL) {
      // Kernel predates MADV_POPULATE_WRITE: pre-faulting is an
      // optimization, not a correctness requirement — report "nothing
      // advised" rather than an error.
      return Status::OK();
    }
    return Errno(std::string("madvise(") + AccessIntentName(intent) + ")");
  }
  if (advised_bytes != nullptr) *advised_bytes = end - begin;
  return Status::OK();
}

Segment::~Segment() {
  // Destructors cannot propagate a Status; Close() remains the checked
  // path and the destructor is the last-resort unmap.
  if (base_ != nullptr && ::munmap(base_, size_) != 0) {
    std::perror("mmjoin: munmap in Segment destructor");
  }
}

Segment::Segment(Segment&& o) noexcept
    : base_(o.base_), size_(o.size_), path_(std::move(o.path_)) {
  o.base_ = nullptr;
  o.size_ = 0;
}

Segment& Segment::operator=(Segment&& o) noexcept {
  if (this != &o) {
    if (base_ != nullptr && ::munmap(base_, size_) != 0) {
      std::perror("mmjoin: munmap in Segment move-assignment");
    }
    base_ = o.base_;
    size_ = o.size_;
    path_ = std::move(o.path_);
    o.base_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

StatusOr<Segment> Segment::Create(const std::string& path, uint64_t bytes,
                                  MapTimings* timings) {
  if (bytes <= sizeof(SegmentHeader)) {
    return Status::InvalidArgument("segment too small for header");
  }
  const double t0 = NowSeconds();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (errno == EEXIST) {
      return Status::AlreadyExists("segment file exists: " + path);
    }
    return Errno("open " + path);
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const Status st = Errno("ftruncate " + path);
    ::close(fd);
    ::unlink(path.c_str());
    return st;
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    ::unlink(path.c_str());
    return Errno("mmap " + path);
  }

  Segment seg;
  seg.base_ = base;
  seg.size_ = bytes;
  seg.path_ = path;
  SegmentHeader* header = seg.header();
  header->magic = SegmentHeader::kMagic;
  header->size_bytes = bytes;
  header->bump = sizeof(SegmentHeader);
  header->root = 0;
  if (timings != nullptr) timings->new_map_s += NowSeconds() - t0;
  return seg;
}

StatusOr<Segment> Segment::Map(const std::string& path, MapTimings* timings) {
  const double t0 = NowSeconds();
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no segment: " + path);
    return Errno("open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Errno("fstat " + path);
    ::close(fd);
    return s;
  }
  const uint64_t bytes = static_cast<uint64_t>(st.st_size);
  if (bytes <= sizeof(SegmentHeader)) {
    ::close(fd);
    return Status::IOError("segment file truncated: " + path);
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return Errno("mmap " + path);

  Segment seg;
  seg.base_ = base;
  seg.size_ = bytes;
  seg.path_ = path;
  if (timings != nullptr) timings->open_map_s += NowSeconds() - t0;
  return seg;
}

StatusOr<Segment> Segment::Open(const std::string& path,
                                MapTimings* timings) {
  MMJOIN_ASSIGN_OR_RETURN(Segment seg, Map(path, timings));
  const SegmentHeader* header = seg.header();
  if (header->magic != SegmentHeader::kMagic ||
      header->size_bytes != seg.size()) {
    return Status::IOError("bad segment header: " + path);
  }
  return seg;
}

Status Segment::Delete(const std::string& path, MapTimings* timings) {
  const double t0 = NowSeconds();
  if (::unlink(path.c_str()) != 0) {
    if (errno == ENOENT) return Status::NotFound("no segment: " + path);
    return Errno("unlink " + path);
  }
  if (timings != nullptr) timings->delete_map_s += NowSeconds() - t0;
  return Status::OK();
}

StatusOr<uint64_t> Segment::Allocate(uint64_t bytes) {
  assert(mapped());
  SegmentHeader* h = header();
  const uint64_t aligned = (h->bump + 7) & ~uint64_t{7};
  if (aligned + bytes > size_) {
    return Status::ResourceExhausted("segment full: " + path_);
  }
  h->bump = aligned + bytes;
  h->clean = 0;
  return aligned;
}

void* Segment::Resolve(uint64_t offset) const {
  assert(mapped());
  assert(offset < size_);
  return reinterpret_cast<char*>(base_) + offset;
}

Status Segment::Sync() { return Sync(MsyncPolicy::kSync); }

Status Segment::Sync(MsyncPolicy policy) {
  assert(mapped());
  if (policy == MsyncPolicy::kNone) return Status::OK();
  const int flags = policy == MsyncPolicy::kSync ? MS_SYNC : MS_ASYNC;
  if (::msync(base_, size_, flags) != 0) {
    return Errno(std::string("msync(") + MsyncPolicyName(policy) + ") " +
                 path_);
  }
  return Status::OK();
}

Status Segment::Seal(MsyncPolicy policy) {
  assert(mapped());
  SegmentHeader* h = header();
  if (h->bump < sizeof(SegmentHeader) || h->bump > size_) {
    return Status::IOError("segment bump out of range, refusing to seal: " +
                           path_);
  }
  h->payload_checksum = ChecksumRanges({Payload()}).front();
  ++h->generation;
  h->clean = 1;
  h->header_checksum = HeaderChecksum(*h);
  return Sync(policy);
}

ByteRange Segment::Payload() const {
  return {static_cast<const char*>(base_) + sizeof(SegmentHeader),
          header()->bump - sizeof(SegmentHeader)};
}

Status Segment::VerifySealedHeader() const {
  assert(mapped());
  const SegmentHeader* h = header();
  // A v2 header verifies only under v2's checksum, so its magic is read
  // before the header checksum: the answer is "old format", not "torn".
  if (h->magic == SegmentHeader::kMagicV2) {
    return Status::IOError(
        "segment is in store format v2 (\"mmjoin02\"), which this build "
        "does not read; persist the store again: " + path_);
  }
  // The header checksum vouches for magic and size, so it goes next: a
  // truncated file keeps a verifying header that no longer matches it.
  if (h->header_checksum != HeaderChecksum(*h)) {
    return Status::IOError("segment header checksum mismatch (torn write?): " +
                           path_);
  }
  if (h->magic != SegmentHeader::kMagic) {
    return Status::IOError("bad segment header: " + path_);
  }
  if (h->size_bytes != size_) {
    return Status::IOError(
        "segment size disagrees with its checksummed header (truncated?): " +
        path_);
  }
  if (h->clean != 1) {
    return Status::IOError(
        "segment not sealed (checksum missing — crashed mid-write?): " +
        path_);
  }
  if (h->bump < sizeof(SegmentHeader) || h->bump > size_) {
    return Status::IOError("sealed segment bump out of range: " + path_);
  }
  return Status::OK();
}

Status Segment::VerifySealed() const { return VerifySealed({this}); }

Status Segment::VerifySealed(const std::vector<const Segment*>& segments) {
  // Only the segments before the first bad header can fail earlier.
  Status header_error;
  std::vector<ByteRange> payloads;
  for (const Segment* seg : segments) {
    header_error = seg->VerifySealedHeader();
    if (!header_error.ok()) break;
    payloads.push_back(seg->Payload());
  }
  const std::vector<uint64_t> sums = ChecksumRanges(payloads);
  for (size_t i = 0; i < sums.size(); ++i) {
    if (sums[i] != segments[i]->header()->payload_checksum) {
      return Status::IOError("segment payload checksum mismatch: " +
                             segments[i]->path_);
    }
  }
  return header_error;
}

Status Segment::Advise(AccessIntent intent, uint64_t* advised_bytes) {
  return AdviseMappedRange(base_, size_, 0, size_, intent, advised_bytes);
}

Status Segment::AdviseRange(uint64_t offset, uint64_t length,
                            AccessIntent intent, uint64_t* advised_bytes) {
  return AdviseMappedRange(base_, size_, offset, length, intent,
                           advised_bytes);
}

Status Segment::Close() {
  if (base_ == nullptr) return Status::OK();
  if (::munmap(base_, size_) != 0) return Errno("munmap " + path_);
  base_ = nullptr;
  size_ = 0;
  return Status::OK();
}

}  // namespace mmjoin::mm
