// On-device historical trajectory store with the two maintenance
// procedures of paper Section V-F:
//   * error-bounded merging — a newly compressed segment that an existing
//     stored segment already represents (within a merge tolerance) is
//     deduplicated into a visit count instead of being stored again;
//   * error-bounded ageing — stored polylines are re-compressed with a
//     greater tolerance, trading accuracy of old trips for space.
#ifndef BQS_STORAGE_TRAJECTORY_STORE_H_
#define BQS_STORAGE_TRAJECTORY_STORE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geometry/line2.h"
#include "storage/grid_index.h"
#include "trajectory/trajectory.h"

namespace bqs {

/// Symmetric Hausdorff distance between segments (a,b) and (c,d) under the
/// point-to-segment metric; 0 means identical paths. Orientation-agnostic.
double SegmentHausdorff(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

/// Options for the store.
struct TrajectoryStoreOptions {
  /// Max Hausdorff distance at which a new segment is considered a repeat
  /// of a stored one ("minor error" in the paper).
  double merge_tolerance = 15.0;
  /// Grid cell size for the similar-segment index; should be >= the merge
  /// tolerance scale.
  double cell_size = 500.0;
  /// Storage accounting: bytes per stored key point.
  double bytes_per_point = 12.0;
};

/// A stored compressed segment (one edge of a stored polyline).
struct StoredSegment {
  uint64_t id = 0;
  Vec2 a, b;
  double t_start = 0.0, t_end = 0.0;
  uint32_t visits = 1;  ///< 1 + number of merges absorbed.
  bool alive = true;
};

/// Historical trajectory database. Single-threaded, bounded only by what is
/// appended (the device offloads before exhaustion; see FlashStore).
class TrajectoryStore {
 public:
  explicit TrajectoryStore(const TrajectoryStoreOptions& options = {});

  /// Outcome of appending one compressed trajectory.
  struct AppendResult {
    std::size_t segments_in = 0;      ///< Segments in the new trajectory.
    std::size_t segments_merged = 0;  ///< Deduplicated into stored ones.
    std::size_t segments_stored = 0;  ///< Newly stored.
  };

  /// Appends a compressed trajectory, merging duplicate segments.
  /// Errors instead of silently storing nothing: InvalidArgument for an
  /// empty or single-point trajectory (no segment to store) and for
  /// non-finite coordinates or timestamps (they would poison the spatial
  /// index and every Hausdorff comparison after them). On error the store
  /// is unchanged.
  Result<AppendResult> Append(const CompressedTrajectory& compressed);

  /// Re-compresses every stored polyline with tolerance `new_epsilon`
  /// (Douglas-Peucker over the stored key points) and rebuilds the index.
  /// Returns the number of key points dropped. The deviation of the old key
  /// points from the aged polylines is bounded by new_epsilon.
  std::size_t Age(double new_epsilon);

  std::size_t segment_count() const { return live_segments_; }
  uint64_t visit_total() const { return visit_total_; }
  /// Bytes the store would occupy on flash.
  double StorageBytes() const;
  const std::vector<StoredSegment>& segments() const { return segments_; }

  /// Stored segment ids whose path is within `tolerance` of (a, b).
  std::vector<uint64_t> FindSimilar(Vec2 a, Vec2 b, double tolerance) const;

 private:
  uint64_t NextId() { return next_id_++; }
  void IndexSegment(const StoredSegment& seg);

  TrajectoryStoreOptions options_;
  std::vector<StoredSegment> segments_;  ///< Dense; `alive` marks deletion.
  /// Polylines as runs of segment ids, used by ageing.
  std::vector<std::vector<uint64_t>> polylines_;
  GridIndex index_;
  uint64_t next_id_ = 0;
  std::size_t live_segments_ = 0;
  uint64_t visit_total_ = 0;
};

}  // namespace bqs

#endif  // BQS_STORAGE_TRAJECTORY_STORE_H_
