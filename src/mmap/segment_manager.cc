#include "mmap/segment_manager.h"

#include <sys/stat.h>

#include <utility>

#include "exec/scheduler.h"

namespace mmjoin::mm {

SegmentManager::SegmentManager(std::string root_dir)
    : root_dir_(std::move(root_dir)) {}

std::string SegmentManager::PathFor(const std::string& name) const {
  return root_dir_ + "/" + name + ".seg";
}

StatusOr<Segment> SegmentManager::CreateSegment(const std::string& name,
                                                uint64_t bytes) {
  MapTimings t;
  auto seg = Segment::Create(PathFor(name), bytes, &t);
  if (seg.ok()) {
    samples_.push_back(MapSample{bytes, t.new_map_s, 0, 0});
    sizes_[name] = bytes;
  }
  return seg;
}

StatusOr<Segment> SegmentManager::OpenSegment(const std::string& name) {
  MapTimings t;
  auto seg = Segment::Open(PathFor(name), &t);
  if (seg.ok()) {
    samples_.push_back(MapSample{seg->size(), 0, t.open_map_s, 0});
    sizes_[name] = seg->size();
  }
  return seg;
}

StatusOr<std::vector<Segment>> SegmentManager::OpenSealedSegments(
    const std::vector<std::string>& names) {
  const uint32_t n = static_cast<uint32_t>(names.size());
  std::vector<Segment> segs;
  std::vector<MapTimings> timings(n);
  std::vector<Status> errors(n);
  segs.reserve(n);
  // Map serially up to the first file that cannot be mapped; only the
  // segments before it can still produce an earlier error.
  for (uint32_t i = 0; i < n; ++i) {
    auto seg = Segment::Map(PathFor(names[i]), &timings[i]);
    if (!seg.ok()) {
      errors[i] = seg.status();
      break;
    }
    segs.push_back(std::move(seg).value());
  }
  const uint32_t mapped = static_cast<uint32_t>(segs.size());
  exec::ParallelFor(mapped, exec::EffectiveWorkers(mapped, 0),
                    [&](uint32_t i) { errors[i] = segs[i].VerifySealed(); });
  for (uint32_t i = 0; i < n; ++i) {
    // Every segment before the first error was mapped and verified.
    if (!errors[i].ok()) return errors[i];
    samples_.push_back(MapSample{segs[i].size(), 0, timings[i].open_map_s, 0});
    sizes_[names[i]] = segs[i].size();
  }
  return segs;
}

StatusOr<Segment> SegmentManager::OpenSealedSegment(const std::string& name) {
  MMJOIN_ASSIGN_OR_RETURN(std::vector<Segment> segs,
                          OpenSealedSegments({name}));
  return std::move(segs.front());
}

Status SegmentManager::DeleteSegment(const std::string& name) {
  MapTimings t;
  uint64_t bytes = 0;
  auto it = sizes_.find(name);
  if (it != sizes_.end()) bytes = it->second;
  const Status st = Segment::Delete(PathFor(name), &t);
  if (st.ok()) {
    samples_.push_back(MapSample{bytes, 0, 0, t.delete_map_s});
    sizes_.erase(name);
  }
  return st;
}

bool SegmentManager::Exists(const std::string& name) const {
  struct stat st;
  return ::stat(PathFor(name).c_str(), &st) == 0;
}

}  // namespace mmjoin::mm
