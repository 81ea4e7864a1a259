// 4-D BQS — the extension the paper closes with ("Exploring the potential
// of a 4-D BQS could be another interesting extension"): compress
// <x, y, altitude, scaled time> streams with a hard 4-D deviation bound.
//
// The bounding structure generalizes Theorem 5.2 to hyper-boxes per
// orthant (16 orthants): the upper bound is the max deviation over the 16
// hyper-box corners (distance-to-line is convex, so its max over the box
// is attained at a corner — provably sound in any dimension); the lower
// bound is the max deviation over the tracked per-axis extreme points,
// which are actual buffered points. The angular bounding machinery of the
// 2-D/3-D systems (whose 4-D analogue the paper does not define) is
// intentionally omitted; the corner bounds alone already prune the easy
// decisions, and the exact engine resolves the rest.
#ifndef BQS_CORE_BQS4D_COMPRESSOR_H_
#define BQS_CORE_BQS4D_COMPRESSOR_H_

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/bounds.h"
#include "core/decision_stats.h"
#include "core/options.h"
#include "geometry/line2.h"
#include "geometry/vec4.h"
#include "trajectory/deviation.h"

namespace bqs {

/// A 4-D fix (w is typically (t - t0) * time_scale).
struct TrackPoint4 {
  Vec4 pos;
  double t = 0.0;

  constexpr bool operator==(const TrackPoint4&) const = default;
};

/// A retained key point of a 4-D compression.
struct KeyPoint4 {
  TrackPoint4 point;
  uint64_t index = 0;
};

/// Output of the 4-D compressor.
struct CompressedTrajectory4 {
  std::vector<KeyPoint4> keys;

  std::size_t size() const { return keys.size(); }
  double CompressionRate(std::size_t original_points) const {
    if (original_points == 0) return 0.0;
    return static_cast<double>(keys.size()) /
           static_cast<double>(original_points);
  }
};

/// Per-orthant bounding state: hyper-box + per-axis extreme points.
class OrthantBound4 {
 public:
  OrthantBound4() = default;

  void Reset();
  /// Folds a point (relative to the origin) into the box and extremes.
  void Add(Vec4 p);
  bool empty() const { return count_ == 0; }
  uint64_t count() const { return count_; }

  /// The 16 hyper-box corners.
  std::array<Vec4, 16> Corners() const;
  /// The (up to 8) buffered points realizing per-axis minima/maxima.
  const std::array<Vec4, 8>& extreme_points() const { return extremes_; }

 private:
  uint64_t count_ = 0;
  Vec4 min_{}, max_{};
  std::array<Vec4, 8> extremes_{};  ///< [axis*2] = argmin, [axis*2+1] = argmax.
};

/// Options for the 4-D compressor.
struct Bqs4dOptions {
  double epsilon = 10.0;
  DistanceMetric metric = DistanceMetric::kPointToLine;

  Status Validate() const { return ValidateEpsilon(epsilon); }
};

/// Online, error-bounded 4-D trajectory compressor (exact or fast engine,
/// mirroring the 2-D/3-D family).
class Bqs4dCompressor {
 public:
  explicit Bqs4dCompressor(const Bqs4dOptions& options = {},
                           bool exact_mode = false);

  void Push(const TrackPoint4& pt, std::vector<KeyPoint4>* out);
  void Finish(std::vector<KeyPoint4>* out);
  void Reset();

  std::string_view name() const { return exact_mode_ ? "BQS4D" : "FBQS4D"; }
  const DecisionStats& stats() const { return stats_; }
  const Bqs4dOptions& options() const { return options_; }

 private:
  enum class Decision { kInclude, kSplit };

  void ProcessPoint(const TrackPoint4& pt, uint64_t index,
                    std::vector<KeyPoint4>* out, int depth);
  Decision Assess(const TrackPoint4& pt);
  void StartSegment(const TrackPoint4& pt, uint64_t index);
  void EmitKey(const TrackPoint4& pt, uint64_t index,
               std::vector<KeyPoint4>* out);
  DeviationBounds AggregateBounds(Vec4 end_rel) const;
  static int OrthantOf4(Vec4 v);

  Bqs4dOptions options_;
  bool exact_mode_;
  DecisionStats stats_;

  bool have_first_ = false;
  uint64_t next_index_ = 0;
  TrackPoint4 segment_start_{};
  TrackPoint4 prev_{};
  uint64_t prev_index_ = 0;
  uint64_t last_emitted_index_ = UINT64_MAX;

  std::array<OrthantBound4, 16> orthants_;
  std::vector<TrackPoint4> buffer_;  ///< Exact mode only.
};

/// Runs a 4-D compressor over a whole stream.
CompressedTrajectory4 Compress4dAll(Bqs4dCompressor& compressor,
                                    std::span<const TrackPoint4> points);

/// Exact per-segment deviation verification in 4-D.
DeviationReport Evaluate4dCompression(std::span<const TrackPoint4> original,
                                      const CompressedTrajectory4& compressed,
                                      DistanceMetric metric);

}  // namespace bqs

#endif  // BQS_CORE_BQS4D_COMPRESSOR_H_
