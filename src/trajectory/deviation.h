// Exact deviation computation and compression verification. This is the
// ground truth the BQS bounds are checked against: the paper's deviation
// metric is the max distance from any interior point of a segment to the
// line (or segment) through its endpoints.
#ifndef BQS_TRAJECTORY_DEVIATION_H_
#define BQS_TRAJECTORY_DEVIATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geometry/line2.h"
#include "geometry/line3.h"
#include "geometry/vec4.h"
#include "trajectory/trajectory.h"

namespace bqs {

/// Max deviation of an explicit buffer against the path (a, b). Counts every
/// point in the buffer (used by compressors whose buffers exclude endpoints).
double BufferDeviation(std::span<const TrackPoint> buffer, Vec2 a, Vec2 b,
                       DistanceMetric metric);

/// Result of verifying a compression against the original stream.
struct DeviationReport {
  double max_deviation = 0.0;       ///< Over all compressed segments.
  std::size_t worst_segment = 0;    ///< Index into segments (key i -> i+1).
  std::vector<double> per_segment;  ///< One entry per compressed segment.

  /// True when every segment deviation is within `epsilon`.
  bool BoundedBy(double epsilon) const { return max_deviation <= epsilon; }
};

/// Re-segments `original` by the key-point indices in `keys` and measures
/// every segment's exact deviation: the max of `distance(p, a, b)` over the
/// positions p strictly between the segment's endpoints a and b. Works for
/// any dimension (only `Key::index` and `Point::pos` are read). A segment
/// whose end index is past the end of `original`, or not strictly greater
/// than its start index, is not a subsequence segment: its deviation is
/// +infinity, so BoundedBy() fails. Nothing outside `original` is read.
template <typename Point, typename Key, typename PointDistance>
DeviationReport EvaluateCompression(std::span<const Point> original,
                                    std::span<const Key> keys,
                                    PointDistance distance) {
  DeviationReport report;
  if (keys.size() < 2) return report;
  report.per_segment.reserve(keys.size() - 1);
  for (std::size_t s = 0; s + 1 < keys.size(); ++s) {
    const uint64_t from = keys[s].index;
    const uint64_t to = keys[s + 1].index;
    double dev = std::numeric_limits<double>::infinity();
    if (from < to && to < original.size()) {
      dev = 0.0;
      const auto& a = original[static_cast<std::size_t>(from)].pos;
      const auto& b = original[static_cast<std::size_t>(to)].pos;
      for (auto i = static_cast<std::size_t>(from) + 1; i < to; ++i) {
        dev = std::max(dev, distance(original[i].pos, a, b));
      }
    }
    report.per_segment.push_back(dev);
    if (dev > report.max_deviation) {
      report.max_deviation = dev;
      report.worst_segment = s;
    }
  }
  return report;
}

/// EvaluateCompression under `metric`, for any point type with a
/// PointDeviation overload (2-D, 3-D and 4-D streams and their outputs).
template <typename Points, typename Compressed>
DeviationReport EvaluateCompression(const Points& original,
                                    const Compressed& compressed,
                                    DistanceMetric metric) {
  return EvaluateCompression(
      std::span(original), std::span(compressed.keys),
      [metric](const auto& p, const auto& a, const auto& b) {
        return PointDeviation(p, a, b, metric);
      });
}

}  // namespace bqs

#endif  // BQS_TRAJECTORY_DEVIATION_H_
