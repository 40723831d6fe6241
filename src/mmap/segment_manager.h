// Directory-backed catalogue of named segments, mirroring µDatabase's
// toolkit role: applications address persistent structures by name, the
// manager turns names into mapped segments and accounts newMap/openMap/
// deleteMap timing per size class (the data behind Fig. 1b).
#ifndef MMJOIN_MMAP_SEGMENT_MANAGER_H_
#define MMJOIN_MMAP_SEGMENT_MANAGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mmap/segment.h"
#include "util/status.h"

namespace mmjoin::mm {

/// One timing sample of a mapping primitive.
struct MapSample {
  uint64_t bytes = 0;
  double new_map_s = 0;
  double open_map_s = 0;
  double delete_map_s = 0;
};

/// Creates, opens and deletes named segments under a root directory.
class SegmentManager {
 public:
  /// `root_dir` must already exist and be writable.
  explicit SegmentManager(std::string root_dir);

  /// newMap: creates segment `name` of `bytes` bytes.
  StatusOr<Segment> CreateSegment(const std::string& name, uint64_t bytes);

  /// openMap: opens an existing segment `name`.
  StatusOr<Segment> OpenSegment(const std::string& name);

  /// openMap for durable stores: opens every segment in `names` and
  /// requires each to be sealed with verifying checksums
  /// (Segment::VerifySealed) — the attach path of warm restarts, where a
  /// torn file must be refused. The files are mapped one after another
  /// (the timing bookkeeping is single-threaded), then verified in
  /// parallel, one segment per unit on up to one thread per core. On
  /// failure the error is the first one in `names` order — the same error
  /// a serial open would report, whichever thread finishes first.
  StatusOr<std::vector<Segment>> OpenSealedSegments(
      const std::vector<std::string>& names);

  /// OpenSealedSegments for one name.
  StatusOr<Segment> OpenSealedSegment(const std::string& name);

  /// deleteMap: destroys segment `name` and its data.
  Status DeleteSegment(const std::string& name);

  /// True if a segment file with this name exists.
  bool Exists(const std::string& name) const;

  /// Filesystem path a segment name maps to.
  std::string PathFor(const std::string& name) const;

  /// The root directory all segment files live under.
  const std::string& root_dir() const { return root_dir_; }

  /// All timing samples collected so far (one per primitive invocation,
  /// keyed by segment size).
  const std::vector<MapSample>& samples() const { return samples_; }
  void ClearSamples() { samples_.clear(); }

 private:
  std::string root_dir_;
  std::vector<MapSample> samples_;
  std::map<std::string, uint64_t> sizes_;  // name -> last known size
};

}  // namespace mmjoin::mm

#endif  // MMJOIN_MMAP_SEGMENT_MANAGER_H_
