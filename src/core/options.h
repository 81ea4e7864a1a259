// Configuration shared by the BQS family of compressors.
#ifndef BQS_CORE_OPTIONS_H_
#define BQS_CORE_OPTIONS_H_

#include <cmath>

#include "common/status.h"
#include "geometry/line2.h"

namespace bqs {

/// Which deviation-bound formulas the quadrant system uses.
enum class BoundsMode {
  /// Provably sound bounds: the paper's candidates plus the in-wedge box
  /// corners and extreme-angle points on the upper side, and the
  /// edge-distance lower bound under the segment metric (see DESIGN.md,
  /// paper-faithfulness notes). Guarantees the error bound; slightly
  /// looser on imperfectly-rotated straight runs. Default.
  kSound,
  /// The paper's literal Theorem 5.3-5.5 / Eq. (8)/(11) bounds. Tighter
  /// (higher pruning power, better FBQS compression — these reproduce the
  /// paper's Figs. 6-7) but *unsound* in degenerate and adversarial
  /// configurations: the error bound can be exceeded. For ablation only.
  kPaperEq8,
};

/// Options for BqsCompressor / FbqsCompressor (and the 3-D variants, which
/// reuse epsilon/metric). Defaults follow the paper's evaluation setup.
struct BqsOptions {
  /// Error tolerance d in metres: every compressed segment's deviation is
  /// guaranteed <= epsilon.
  double epsilon = 10.0;

  /// Deviation metric. The paper proves its theorems for point-to-line and
  /// gives the Eq. (11) adjustment for point-to-segment.
  DistanceMetric metric = DistanceMetric::kPointToLine;

  /// Data-centric rotation (paper Section V-D): rotate the axes toward the
  /// centroid of the first `rotation_warmup` out-of-epsilon points so the
  /// data splits across two quadrants and the hulls are tighter.
  bool data_centric_rotation = true;

  /// Number of out-of-epsilon points buffered before the rotation is fixed.
  /// The paper suggests ~5; we default slightly higher because a longer
  /// baseline reduces the rotation-estimate bias, which directly tightens
  /// the sound upper bound on straight runs. Must be in
  /// [1, kMaxRotationWarmup].
  int rotation_warmup = 8;

  /// Upper limit for rotation_warmup (fixed-capacity warm-up buffer keeps
  /// FBQS free of dynamic allocation).
  static constexpr int kMaxRotationWarmup = 16;

  /// Paper-faithful handling of points within epsilon of the segment start:
  /// Algorithm 1 includes them unconditionally (Theorem 5.1). That is sound
  /// for them as *interior* points but not as segment *endpoints*: if such
  /// a point ends a segment (split-at-previous or stream end), the deviation
  /// of the earlier buffered points against that end was never verified and
  /// the error bound can be exceeded. With this flag false (default), near-
  /// start points still skip all structure updates (the real content of
  /// Theorem 5.1) but run the O(1) bound check for end-validity. Set true
  /// to reproduce the paper's exact behaviour (ablation only).
  bool paper_trivial_include = false;

  /// Bound formulas; see BoundsMode. kPaperEq8 + paper_trivial_include
  /// together reproduce the paper's Algorithm 1 verbatim.
  BoundsMode bounds_mode = BoundsMode::kSound;

  /// Validates ranges; returns InvalidArgument with an explanation if bad.
  Status Validate() const {
    if (!std::isfinite(epsilon) || epsilon <= 0.0) {
      return Status::InvalidArgument("epsilon must be positive and finite");
    }
    if (rotation_warmup < 1 || rotation_warmup > kMaxRotationWarmup) {
      return Status::InvalidArgument(
          "rotation_warmup must be in [1, kMaxRotationWarmup]");
    }
    return Status::OK();
  }
};

}  // namespace bqs

#endif  // BQS_CORE_OPTIONS_H_
