#include "core/bounds.h"

#include <algorithm>
#include <cmath>

#include "common/op_counters.h"
#include "geometry/angle.h"

namespace bqs {

namespace {

// Distance from a significant point to the path (origin -> end) under the
// configured metric. The quadrant frame puts the segment start at (0,0).
// Every call carries a square root (hypot under the segment metric, a norm
// under the line metric); the counter is what lets the micro bench prove
// the fast kernel's conclusive path never comes here.
double PathDistance(Vec2 p, Vec2 end, DistanceMetric metric) {
  ops::CountSqrt();
  return PointDeviation(p, Vec2{0.0, 0.0}, end, metric);
}


}  // namespace

DeviationBounds QuadrantDeviationBounds(
    const QuadrantBound& qb, Vec2 end, DistanceMetric metric, BoundsMode mode,
    const QuadrantBound::SignificantPoints* provided_sig) {
  const QuadrantBound::SignificantPoints sig_storage =
      provided_sig == nullptr ? qb.ComputeSignificant()
                              : QuadrantBound::SignificantPoints{};
  const QuadrantBound::SignificantPoints& sig =
      provided_sig == nullptr ? sig_storage : *provided_sig;

  const double dl1 = PathDistance(sig.l1, end, metric);
  const double dl2 = PathDistance(sig.l2, end, metric);
  const double du1 = PathDistance(sig.u1, end, metric);
  const double du2 = PathDistance(sig.u2, end, metric);
  const double dc[4] = {PathDistance(sig.corners[0], end, metric),
                        PathDistance(sig.corners[1], end, metric),
                        PathDistance(sig.corners[2], end, metric),
                        PathDistance(sig.corners[3], end, metric)};
  const double dcn = PathDistance(sig.near_corner, end, metric);
  const double dcf = PathDistance(sig.far_corner, end, metric);
  // The extreme-angle points are actual buffered points: their deviation is
  // always a valid lower-bound candidate, and folding them into the upper
  // bound guards the corner-grazing case where l1==l2 (or u1==u2)
  // degenerates to the point itself.
  const double dpmin = PathDistance(sig.min_angle_point, end, metric);
  const double dpmax = PathDistance(sig.max_angle_point, end, metric);
  const double dpoints = std::max(dpmin, dpmax);

  // Corners inside the angular wedge [min_angle, max_angle] are true
  // vertices of (box intersect wedge) and must join the upper bound: the
  // paper's intersection-only Eq. (8) silently assumes the bounding rays
  // sweep the full box, which fails under floating point for hair-thin
  // boxes (collinear runs after rotation) — the ray exits through the long
  // side and the far corners' deviation is missed. The wedge test uses
  // cross products against the extreme-angle points, so it has no 0/2pi
  // wrap issues; the relative slack only ever adds corners (safe side).
  double dwedge_corners = 0.0;
  {
    const Vec2 pmin = sig.min_angle_point;
    const Vec2 pmax = sig.max_angle_point;
    for (std::size_t i = 0; i < 4; ++i) {
      const Vec2 c = sig.corners[i];
      const double slack_min = 1e-9 * pmin.Norm() * c.Norm();
      const double slack_max = 1e-9 * pmax.Norm() * c.Norm();
      if (pmin.Cross(c) >= -slack_min && c.Cross(pmax) >= -slack_max) {
        dwedge_corners = std::max(dwedge_corners, dc[i]);
      }
    }
  }

  // "In quadrant" test (paper Section V-B): with point-to-line distance a
  // line is in exactly two opposite quadrants; with point-to-segment the
  // property is directional (Section V-G), so test the ray towards `end`.
  // A degenerate path (end == origin, e.g. a duplicate fix) collapses the
  // distance to |p - s|; only the corner-based Theorem 5.5 bounds remain
  // valid there, so force that branch.
  const bool degenerate = end == Vec2{0.0, 0.0};
  bool in_quadrant = false;
  if (!degenerate) {
    ops::CountAtan2();  // end.Angle() below, on either metric branch.
    in_quadrant = metric == DistanceMetric::kPointToLine
                      ? LineInQuadrant(end.Angle(), qb.quadrant())
                      : RayInQuadrant(end.Angle(), qb.quadrant());
  }

  DeviationBounds bounds;
  if (mode == BoundsMode::kPaperEq8) {
    // The paper's literal formulas (ablation only; README.md,
    // "Paper-faithfulness notes", says why they are unsound in general).
    if (in_quadrant) {
      bounds.lower = std::max({std::min(dl1, dl2), std::min(du1, du2),
                               std::max(dcn, dcf)});
      bounds.upper = metric == DistanceMetric::kPointToLine
                         ? std::max({dl1, dl2, du1, du2})            // (8)
                         : std::max({dl1, dl2, du1, du2, dcn, dcf});  // (11)
    } else {
      bounds.lower = std::max({std::min(dl1, dl2), std::min(du1, du2),
                               detail::ThirdLargest(dc[0], dc[1], dc[2], dc[3])});
      bounds.upper = std::max({dc[0], dc[1], dc[2], dc[3]});  // (10)
    }
    if (bounds.lower > bounds.upper) bounds.lower = bounds.upper;
    return bounds;
  }

  if (metric == DistanceMetric::kPointToSegment) {
    // The paper's Theorem 5.3/5.5 *lower* bounds do not survive the switch
    // to segment distance (the distance field around the end point breaks
    // the edge-endpoint argument; randomized testing confirms violations).
    // A provably valid replacement: every box edge carries at least one
    // buffered point, whose deviation is at least the exact distance from
    // the path segment to that edge.
    const auto& c = sig.corners;
    const Vec2 s{0.0, 0.0};
    double edge_lb = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      ops::CountSqrt();
      edge_lb = std::max(
          edge_lb, SegmentToSegmentDistance(c[i], c[(i + 1) % 4], s, end));
    }
    bounds.lower = std::max(edge_lb, dpoints);
    if (in_quadrant) {
      // Eq. (11): the segment metric needs the near-far corner distances
      // in the upper bound on top of the intersections.
      bounds.upper = std::max(
          {dl1, dl2, du1, du2, dcn, dcf, dpoints, dwedge_corners});
    } else {
      bounds.upper = std::max({dc[0], dc[1], dc[2], dc[3]});  // Eq. (10)
    }
  } else if (in_quadrant) {
    // Theorems 5.3 / 5.4 (identical bounds whether the path line lies
    // between or outside the two bounding lines).
    bounds.lower = std::max({std::min(dl1, dl2), std::min(du1, du2),
                             std::max(dcn, dcf), dpoints});
    // Eq. (8) is max{d_intersection} only; the near/far corners and any
    // corner inside the wedge must join it (see the dwedge_corners note
    // above and README.md, "Paper-faithfulness notes"). When the paper's
    // triangle argument holds these extra candidates are dominated by the
    // intersections, so the bound is exactly Eq. (8)-tight on
    // non-degenerate data.
    bounds.upper = std::max(
        {dl1, dl2, du1, du2, dcn, dcf, dpoints, dwedge_corners});
  } else {
    // Theorem 5.5. Note: the paper's Eq. (9) second term reads
    // min{d(u1), d(l2)}; by symmetry with Eq. (7) we implement the safe
    // reading min{d(u1), d(u2)} (see README.md, "Paper-faithfulness notes").
    bounds.lower = std::max({std::min(dl1, dl2), std::min(du1, du2),
                             detail::ThirdLargest(dc[0], dc[1], dc[2], dc[3]),
                             dpoints});
    bounds.upper = std::max({dc[0], dc[1], dc[2], dc[3]});  // Eq. (10)
  }

  // The bounds sandwich the true maximum, so lower <= upper must hold; any
  // floating-point inversion is collapsed conservatively.
  if (bounds.lower > bounds.upper) bounds.lower = bounds.upper;
  return bounds;
}

DeviationBounds BoxDeviationBounds(const QuadrantBound& qb, Vec2 end,
                                   DistanceMetric metric) {
  const auto corners = qb.box().Corners();
  DeviationBounds bounds;
  double mn = PathDistance(corners[0], end, metric);
  double mx = mn;
  for (std::size_t i = 1; i < 4; ++i) {
    const double d = PathDistance(corners[i], end, metric);
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  if (metric == DistanceMetric::kPointToSegment) {
    // Theorem 5.2's min-corner lower bound is a line-metric result; under
    // the segment metric the valid form is the exact distance from the
    // path segment to each (point-carrying) box edge.
    mn = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      mn = std::max(mn, SegmentToSegmentDistance(corners[i],
                                                 corners[(i + 1) % 4],
                                                 Vec2{0.0, 0.0}, end));
    }
  }
  bounds.lower = mn;  // Theorem 5.2, Eq. (5)
  bounds.upper = mx;  // Theorem 5.2, Eq. (6)
  return bounds;
}

}  // namespace bqs
