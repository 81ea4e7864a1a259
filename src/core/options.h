// Configuration shared by the BQS family of compressors.
#ifndef BQS_CORE_OPTIONS_H_
#define BQS_CORE_OPTIONS_H_

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

/// How BQS resolves the inconclusive case (d_lb <= epsilon < d_ub) exactly.
enum class ExactResolver {
  /// Brute-force below adaptive_resolver_threshold buffered points, hull
  /// above: short segments pay the flat rescan (which beats hull
  /// maintenance overhead on well-behaved streams, where segments rarely
  /// grow long), adversarial segments get the O(h) hull. Byte-identical
  /// to both pure modes because the two resolvers agree exactly (the
  /// deviation maximum is attained at a hull vertex). Under the fast
  /// kernel with the line metric and sound bounds the flat phase is a
  /// squared-domain SIMD max|cross| verdict rather than a sqrt rescan;
  /// only resolves inside its ~1e-12 relative guard band rescan with
  /// distances (counted as kernel fallbacks). Default.
  kAdaptive,
  /// Scan the vertices of an incrementally-maintained convex hull of the
  /// segment buffer (Melkman). O(h) per resolve, O(h) space, h << n; the
  /// maximum deviation from a chord is attained at a hull vertex, so the
  /// result matches the full scan.
  kHull,
  /// The paper's literal Table I behaviour: rescan the whole segment
  /// buffer. O(n) per resolve, O(n) space — worst-case O(n^2) streams.
  /// Kept as the reference implementation the hull path is checksummed
  /// against (tests and bench_throughput).
  kBruteForce,
};

/// Which per-point bound-maintenance kernel the engine runs.
enum class BoundKernel {
  /// Transcendental-free kernel: sign-test quadrant classification,
  /// cross-product angular-extreme tracking, cached significant points,
  /// and squared-deviation threshold tests (cross^2 vs eps^2*|end|^2 under
  /// the line metric) with sqrt deferred to the inconclusive path. Any
  /// comparison that lands inside a ~1e-12 relative guard band of the
  /// threshold falls back to the reference composition for that push, so
  /// decisions are reference-identical by construction. Default.
  kFast,
  /// The seed's transcendental path: atan2 classification + angular
  /// tracking, significant points rebuilt per push, hypot-based distances
  /// compared against epsilon. Reference implementation the fast kernel is
  /// checksummed against (tests, bench_micro_ops, bench_throughput).
  kReference,
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

  /// Exact-deviation resolver for BQS (FBQS never resolves exactly after
  /// warm-up). kBruteForce reproduces the seed implementation bit-for-bit
  /// and exists for differential tests and the bench reference.
  ExactResolver exact_resolver = ExactResolver::kAdaptive;

  /// kAdaptive switch-over: segments with fewer buffered points than this
  /// resolve brute-force; at the threshold the buffer migrates into the
  /// Melkman hull and stays there for the segment's remainder. Default
  /// measured on the empirical stream (bench_throughput), whose segments
  /// peak below this: flat rescans of a few dozen points beat Melkman
  /// maintenance (robust orientation tests per insert) until segments grow
  /// into the hundreds, and the O(h)-resolve win only dominates on
  /// adversarial segments growing into the thousands.
  int adaptive_resolver_threshold = 256;

  /// Per-point bound-maintenance kernel; see BoundKernel. kReference
  /// reproduces the seed's transcendental path bit-for-bit.
  BoundKernel bound_kernel = BoundKernel::kFast;

  /// Validates ranges; returns InvalidArgument with an explanation if bad.
  Status Validate() const {
    if (!(epsilon > 0.0)) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    if (rotation_warmup < 1 || rotation_warmup > kMaxRotationWarmup) {
      return Status::InvalidArgument(
          "rotation_warmup must be in [1, kMaxRotationWarmup]");
    }
    if (adaptive_resolver_threshold < 1) {
      return Status::InvalidArgument(
          "adaptive_resolver_threshold must be >= 1");
    }
    return Status::OK();
  }
};

}  // namespace bqs

#endif  // BQS_CORE_OPTIONS_H_
