// Deviation bounds from a quadrant's significant points (paper Theorems
// 5.2-5.5 and the Eq. 11 point-to-segment adjustment). Given a quadrant
// bound and a candidate end point, these functions produce a pair
// <d_lb, d_ub> sandwiching the maximum deviation of every buffered point in
// that quadrant to the path line, without touching the buffer.
#ifndef BQS_CORE_BOUNDS_H_
#define BQS_CORE_BOUNDS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/quadrant_bound.h"
#include "geometry/line2.h"
#include "geometry/vec2.h"

namespace bqs {

namespace detail {
/// Third largest of four values (Theorem 5.5's corner term): the classic
/// 4-element median network — second smallest = min(max of the pairwise
/// minima, min of the pairwise maxima). Branch-free, same value a sort
/// would select.
inline double ThirdLargest(double a, double b, double c, double d) {
  const double lo_ab = std::min(a, b);
  const double hi_ab = std::max(a, b);
  const double lo_cd = std::min(c, d);
  const double hi_cd = std::max(c, d);
  return std::min(std::max(lo_ab, lo_cd), std::min(hi_ab, hi_cd));
}
}  // namespace detail

/// Which deviation-bound formulas the reference composition uses.
enum class BoundsMode {
  /// Provably sound bounds: the paper's candidates plus the in-wedge box
  /// corners and extreme-angle points on the upper side, and the
  /// edge-distance lower bound under the segment metric (see README.md,
  /// "Paper-faithfulness notes"). Guarantees the error bound; slightly
  /// looser on imperfectly-rotated straight runs. The only mode the fast
  /// kernel implements.
  kSound,
  /// The paper's literal Theorem 5.3-5.5 / Eq. (8)/(11) bounds. Tighter
  /// (higher pruning power, better FBQS compression — these reproduce the
  /// paper's Figs. 6-7) but *unsound* in degenerate and adversarial
  /// configurations: the error bound can be exceeded. Ablation only,
  /// reached through the test/bench-only internal::KernelOracle hook.
  kPaperEq8,
};

/// A lower/upper bound pair on the maximum deviation.
struct DeviationBounds {
  double lower = 0.0;
  double upper = 0.0;

  /// Aggregates per-quadrant bounds (Algorithm 1 line 5): both the global
  /// lower and the global upper bound are maxima over the quadrants,
  /// because the segment deviation is the max over all buffered points.
  void MergeMax(const DeviationBounds& other) {
    lower = lower > other.lower ? lower : other.lower;
    upper = upper > other.upper ? upper : other.upper;
  }
};

/// Bounds on max deviation of the points summarized by `qb` to the path
/// from the origin to `end` (both in the quadrant system's rotated frame).
/// Chooses Theorem 5.3/5.4 ("line in quadrant") or Theorem 5.5 (line not
/// in quadrant) internally; with DistanceMetric::kPointToSegment the upper
/// bound follows Eq. (11) and the in-quadrant test is directional.
/// `mode` selects the sound corrected bounds (default) or the paper's
/// literal formulas (see BoundsMode).
///
/// This is the reference (transcendental) composition: distances carry
/// their square roots and the in-quadrant test normalizes an atan2 angle.
/// `sig`, when non-null, supplies precomputed significant points (the fast
/// kernel's fallback path reuses the cache); null recomputes them, which is
/// the seed's per-push cost profile.
/// Precondition: !qb.empty() and end != origin.
DeviationBounds QuadrantDeviationBounds(
    const QuadrantBound& qb, Vec2 end, DistanceMetric metric,
    BoundsMode mode = BoundsMode::kSound,
    const QuadrantBound::SignificantPoints* sig = nullptr);

/// One quadrant's deviation bounds in the fast kernel's sqrt-free
/// comparison domain: under kPointToLine, `lower`/`upper` are
/// |cross(end, p)| magnitudes (distance numerators — divide by |end| for
/// metres); under kPointToSegment they are squared distances. The min/max
/// compositions mirror QuadrantDeviationBounds' kSound composition
/// exactly, and both domains
/// map to the reference's rounded distances through a weakly monotone
/// function, so threshold comparisons against epsilon agree with the
/// reference outside a ~1e-12 relative guard band (the engine falls back
/// to the reference composition inside it).
///
/// `ok == false` reports that an internal guard band was hit (a corner
/// sat exactly on the wedge-membership slack boundary); the caller must
/// fall back to QuadrantDeviationBounds for the whole push.
///
/// `end_in_quadrant` is the caller's transcendental-free in-quadrant test:
/// quadrant parity match for the line metric, quadrant equality for the
/// segment metric (see DESIGN notes in bounds.cc).
/// Precondition: !qb.empty() and end != origin.
struct FastQuadrantBounds {
  double lower = 0.0;
  double upper = 0.0;
  bool ok = true;

  void MergeMax(const FastQuadrantBounds& other) {
    lower = lower > other.lower ? lower : other.lower;
    upper = upper > other.upper ? upper : other.upper;
    ok = ok && other.ok;
  }
};
/// Inline: the conclusive fast path calls this a few times per assessed
/// point, and keeping it visible to the caller's TU removes the hottest
/// cross-TU call in the engine.
inline FastQuadrantBounds QuadrantFastBounds(const QuadrantBound& qb,
                                             Vec2 end, bool end_in_quadrant,
                                             DistanceMetric metric) {
  const QuadrantBound::SignificantPoints& sig = qb.Significant();
  FastQuadrantBounds out;

  // Candidate values in the comparison domain. Line metric: the |cross|
  // magnitude is computed with the same expression as the reference's
  // PointToLineDistance numerator (end.Cross(p)), so the min/max
  // compositions below select the same candidates the reference selects
  // after its (monotone) division by |end|. Segment metric: squared
  // distances from the same closest points the reference uses.
  const bool line = metric == DistanceMetric::kPointToLine;
  const Vec2 s{0.0, 0.0};
  const auto value = [&](Vec2 p) {
    return line ? std::fabs(end.Cross(p)) : PointToSegmentDistanceSq(p, s, end);
  };

  const double vl1 = value(sig.l1);
  const double vl2 = value(sig.l2);
  const double vu1 = value(sig.u1);
  const double vu2 = value(sig.u2);
  const double vc[4] = {value(sig.corners[0]), value(sig.corners[1]),
                        value(sig.corners[2]), value(sig.corners[3])};
  // near/far corners are bitwise copies of corner entries: reuse their
  // already-computed values instead of re-evaluating.
  const double vcn = vc[sig.near_corner_index];
  const double vcf = vc[sig.far_corner_index];

  const double vpoints =
      std::max(value(sig.min_angle_point), value(sig.max_angle_point));

  // In-wedge corners (see the reference composition). Only the in-quadrant
  // upper bound consumes this term; the band-sensitive classification is
  // end-independent and cached with the significant points.
  double vwedge = 0.0;
  if (end_in_quadrant) {
    if (!sig.wedge_ok) {
      out.ok = false;
      return out;
    }
    for (std::size_t i = 0; i < 4; ++i) {
      if (sig.corner_in_wedge[i]) vwedge = std::max(vwedge, vc[i]);
    }
  }

  if (!line) {
    double edge_lb = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      edge_lb = std::max(edge_lb,
                         SegmentToSegmentDistanceSq(
                             sig.corners[i], sig.corners[(i + 1) % 4], s, end));
    }
    out.lower = std::max(edge_lb, vpoints);
    out.upper = end_in_quadrant
                    ? std::max({vl1, vl2, vu1, vu2, vcn, vcf, vpoints, vwedge})
                    : std::max({vc[0], vc[1], vc[2], vc[3]});
  } else if (end_in_quadrant) {
    out.lower = std::max({std::min(vl1, vl2), std::min(vu1, vu2),
                          std::max(vcn, vcf), vpoints});
    out.upper = std::max({vl1, vl2, vu1, vu2, vcn, vcf, vpoints, vwedge});
  } else {
    out.lower = std::max({std::min(vl1, vl2), std::min(vu1, vu2),
                          detail::ThirdLargest(vc[0], vc[1], vc[2], vc[3]),
                          vpoints});
    out.upper = std::max({vc[0], vc[1], vc[2], vc[3]});
  }

  // The bounds sandwich the true maximum, so lower <= upper must hold; any
  // floating-point inversion is collapsed conservatively.
  if (out.lower > out.upper) out.lower = out.upper;
  return out;
}

/// Line-metric include pre-test value: Theorem 5.2's whole-box upper bound
/// (the max over the box corners) in QuadrantFastBounds' |cross(end, p)|
/// domain, plus an absolute rounding margin. Every candidate of the tight
/// kSound composition lies in the box — corners and extreme points
/// exactly, the bounding-line intersections up to a few ulps of the box
/// coordinates (IntersectRay's slab rounding) — and |end x p| is linear in
/// p, so its maximum over the box sits at a corner. The margin,
/// ~90 ulps of (|end.x| + |end.y|) * max|box coordinate|, covers those
/// intersection ulps plus the rounding of both the corner and the candidate
/// cross products, so the returned value dominates
/// QuadrantFastBounds(...).upper (and |end| times the reference's upper)
/// without touching the significant points. A squared include verdict
/// against it is therefore an include verdict of the tight composition.
/// Precondition: !box.empty().
inline double BoxCrossUpper(const Box2& box, Vec2 end) {
  const Vec2 lo = box.min();
  const Vec2 hi = box.max();
  const double corner_max =
      std::max(std::max(std::fabs(end.Cross(lo)),
                        std::fabs(end.Cross(Vec2{hi.x, lo.y}))),
               std::max(std::fabs(end.Cross(hi)),
                        std::fabs(end.Cross(Vec2{lo.x, hi.y}))));
  const double coord_max =
      std::max(std::max(std::fabs(lo.x), std::fabs(hi.x)),
               std::max(std::fabs(lo.y), std::fabs(hi.y)));
  const double margin =
      1e-14 * (std::fabs(end.x) + std::fabs(end.y)) * coord_max;
  return corner_max + margin;
}

/// Loose whole-box bounds of Theorem 5.2 (min/max corner distance). Used as
/// a baseline in the bound-tightness ablation; the compressors use
/// QuadrantDeviationBounds.
DeviationBounds BoxDeviationBounds(const QuadrantBound& qb, Vec2 end,
                                   DistanceMetric metric);

}  // namespace bqs

#endif  // BQS_CORE_BOUNDS_H_
