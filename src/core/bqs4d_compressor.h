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
#include <string_view>
#include <vector>

#include "core/bounds.h"
#include "core/orthant_compressor.h"
#include "geometry/vec4.h"

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

/// Per-orthant bounding state: hyper-box + per-axis extreme points. Works
/// in the original frame, so the orthant index is only recorded.
class OrthantBound4 {
 public:
  OrthantBound4() : OrthantBound4(0) {}
  explicit OrthantBound4(int orthant) : orthant_(orthant) {}

  void Reset();
  /// Folds a point (relative to the origin) into the box and extremes.
  void Add(Vec4 p);
  bool empty() const { return count_ == 0; }
  uint64_t count() const { return count_; }
  int orthant() const { return orthant_; }

  /// The 16 hyper-box corners.
  std::array<Vec4, 16> Corners() const;
  /// The (up to 8) buffered points realizing per-axis minima/maxima.
  const std::array<Vec4, 8>& extreme_points() const { return extremes_; }

 private:
  int orthant_;
  uint64_t count_ = 0;
  Vec4 min_{}, max_{};
  std::array<Vec4, 8> extremes_{};  ///< [axis*2] = argmin, [axis*2+1] = argmax.
};

/// The 4-D bound policy: hyper-box corners for the upper bound, the
/// tracked extreme points for the lower bound.
struct Orthant4dPolicy {
  using Vec = Vec4;
  using Point = TrackPoint4;
  using Key = KeyPoint4;
  using Compressed = CompressedTrajectory4;
  using Bound = OrthantBound4;
  static constexpr std::size_t kOrthants = 16;
  static constexpr std::string_view kExactName = "BQS4D";
  static constexpr std::string_view kFastName = "FBQS4D";

  /// Bit i set when coordinate i (x, y, z, w) is negative.
  static int OrthantOf(Vec4 v);
  static DeviationBounds Bounds(const OrthantBound4& o, Vec4 end,
                                DistanceMetric metric);
};

/// Online, error-bounded 4-D trajectory compressor (exact or fast engine,
/// mirroring the 2-D/3-D family).
using Bqs4dCompressor = OrthantCompressor<Orthant4dPolicy>;

}  // namespace bqs

#endif  // BQS_CORE_BQS4D_COMPRESSOR_H_
