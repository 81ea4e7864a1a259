// The 3-D BQS compressor (paper Section V-G): octant systems with bounding
// prisms and bounding planes replace the 2-D quadrant systems. Exact mode
// mirrors BQS (buffer + scan on inconclusive bounds); fast mode mirrors
// FBQS (constant space, aggressive split).
#ifndef BQS_CORE_BQS3D_COMPRESSOR_H_
#define BQS_CORE_BQS3D_COMPRESSOR_H_

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/bounds3d.h"
#include "core/decision_stats.h"
#include "core/octant_bound.h"
#include "core/options.h"
#include "core/point3.h"
#include "geometry/line2.h"
#include "trajectory/deviation.h"

namespace bqs {

/// Options for the 3-D compressor.
struct Bqs3dOptions {
  /// Error tolerance in the 3-D space (metres; for time-sensitive use the
  /// z axis is pre-scaled so this stays a single scalar).
  double epsilon = 10.0;
  /// 3-D point-to-line (default) or point-to-segment deviation.
  DistanceMetric metric = DistanceMetric::kPointToLine;
  /// Significant-point scheme for the upper bound.
  Bounds3dMode mode = Bounds3dMode::kClippedHull;

  /// Paper-faithful unconditional include of near-start points; see
  /// internal::KernelOracle::paper_trivial_include (core/segment_state.h)
  /// for why the default is the safe end-validity check.
  bool paper_trivial_include = false;

  Status Validate() const { return ValidateEpsilon(epsilon); }
};

/// Online, error-bounded 3-D trajectory compressor.
class Bqs3dCompressor {
 public:
  /// `exact_mode` true = 3-D BQS (buffered exact fallback); false = fast
  /// 3-D BQS (constant space).
  explicit Bqs3dCompressor(const Bqs3dOptions& options = {},
                           bool exact_mode = false);

  void Push(const TrackPoint3& pt, std::vector<KeyPoint3>* out);
  void Finish(std::vector<KeyPoint3>* out);
  void Reset();

  std::string_view name() const { return exact_mode_ ? "BQS3D" : "FBQS3D"; }
  const DecisionStats& stats() const { return stats_; }
  const Bqs3dOptions& options() const { return options_; }
  const OctantBound& octant(int i) const {
    return octants_[static_cast<std::size_t>(i)];
  }

 private:
  enum class Decision { kInclude, kSplit };

  void ProcessPoint(const TrackPoint3& pt, uint64_t index,
                    std::vector<KeyPoint3>* out, int depth);
  Decision Assess(const TrackPoint3& pt);
  void StartSegment(const TrackPoint3& pt, uint64_t index);
  void EmitKey(const TrackPoint3& pt, uint64_t index,
               std::vector<KeyPoint3>* out);
  DeviationBounds AggregateBounds(Vec3 end_rel) const;
  double BufferDeviation3(Vec3 start_abs, Vec3 end_abs) const;

  Bqs3dOptions options_;
  bool exact_mode_;
  DecisionStats stats_;

  bool have_first_ = false;
  uint64_t next_index_ = 0;
  TrackPoint3 segment_start_{};
  TrackPoint3 prev_{};
  uint64_t prev_index_ = 0;
  uint64_t last_emitted_index_ = UINT64_MAX;

  std::array<OctantBound, 8> octants_;
  std::vector<TrackPoint3> buffer_;  ///< Exact mode only.
};

/// Runs a 3-D compressor over a whole stream.
CompressedTrajectory3 Compress3dAll(Bqs3dCompressor& compressor,
                                    std::span<const TrackPoint3> points);

/// Exact per-segment deviation verification in 3-D (ground truth for the
/// error-bound property tests).
DeviationReport Evaluate3dCompression(std::span<const TrackPoint3> original,
                                      const CompressedTrajectory3& compressed,
                                      DistanceMetric metric);

}  // namespace bqs

#endif  // BQS_CORE_BQS3D_COMPRESSOR_H_
