#include "core/bounds3d.h"

#include <algorithm>
#include <cmath>

#include "geometry/line3.h"
#include "geometry/plane.h"

namespace bqs {

double LineToRectDistance(Vec3 a, Vec3 b, const std::array<Vec3, 4>& rect) {
  // The distance-to-line function restricted to the rectangle's plane is
  // convex; its unconstrained minimizer is the pierce point (distance 0)
  // for a transversal line, or the projection of the whole line (distance
  // = plane offset) for a parallel line. Only when that minimizer lies
  // outside the rectangle is the minimum attained on the boundary.
  const auto plane_opt = Plane3::FromPoints(rect[0], rect[1], rect[2]);
  if (plane_opt.has_value()) {
    const Plane3 plane = plane_opt->Normalized();
    const Vec3 dir = b - a;
    const double dir_norm = dir.Norm();
    const double denom = plane.normal.Dot(dir);
    const Vec3 e0 = rect[1] - rect[0];
    const Vec3 e1 = rect[3] - rect[0];
    const double l0 = e0.NormSq();
    const double l1 = e1.NormSq();
    const auto inside = [&](Vec3 p) {
      const Vec3 rel = p - rect[0];
      const double u = l0 > 0.0 ? rel.Dot(e0) / l0 : 0.0;
      const double v = l1 > 0.0 ? rel.Dot(e1) / l1 : 0.0;
      return u >= -1e-9 && u <= 1.0 + 1e-9 && v >= -1e-9 && v <= 1.0 + 1e-9;
    };
    if (std::fabs(denom) > 1e-12 * dir_norm) {
      // Transversal: zero if the pierce point is inside the rectangle.
      const double t = -plane.Eval(a) / denom;
      if (inside(a + t * dir)) return 0.0;
    } else if (dir_norm > 0.0) {
      // Parallel: the minimizing set is the line's projection onto the
      // plane; if that projected line crosses the rectangle, the distance
      // is the perpendicular plane offset.
      const double offset = plane.Eval(a);
      const Vec3 a_proj = a - offset * plane.normal;
      const Vec3 b_proj = b - plane.Eval(b) * plane.normal;
      // The infinite projected line crosses the convex rectangle iff the
      // corners do not all lie strictly on one side of it (within the
      // plane). Use the plane normal to orient the side test.
      const Vec3 line_dir = b_proj - a_proj;
      int pos = 0;
      int neg = 0;
      for (const Vec3& c : rect) {
        const double side = plane.normal.Dot(line_dir.Cross(c - a_proj));
        if (side > 0.0) ++pos;
        if (side < 0.0) ++neg;
      }
      if (pos == 0 || neg == 0) {
        // All corners on one side: the minimum is on the boundary below.
      } else {
        return std::fabs(offset);
      }
    }
  }
  double best = LineToSegmentDistance3(a, b, rect[0], rect[1]);
  best = std::min(best, LineToSegmentDistance3(a, b, rect[1], rect[2]));
  best = std::min(best, LineToSegmentDistance3(a, b, rect[2], rect[3]));
  best = std::min(best, LineToSegmentDistance3(a, b, rect[3], rect[0]));
  return best;
}

DeviationBounds OctantDeviationBounds(const OctantBound& ob, Vec3 end,
                                      DistanceMetric metric,
                                      std::span<const Vec3> significant) {
  // Work in the canonical (reflected) frame; the reflection is an isometry
  // so all distances match the original frame.
  const Vec3 end_c = ob.Flip(end);

  DeviationBounds bounds;

  // Upper bound: max distance over the significant points.
  for (const Vec3& v : significant) {
    bounds.upper =
        std::max(bounds.upper, PointDeviation(v, Vec3{}, end_c, metric));
  }
  // Fallback: if clipping degenerated (e.g. a flat prism whose wedge cuts
  // removed everything within tolerance), bound by the prism corners,
  // which always contain the points.
  if (significant.empty()) {
    for (const Vec3& c : ob.box().Corners()) {
      bounds.upper =
          std::max(bounds.upper, PointDeviation(c, Vec3{}, end_c, metric));
    }
  }

  // Lower bound: every prism face holds at least one buffered point, so
  // d_max >= max over faces of dist(path line, face). (Using the line
  // distance keeps the bound valid for the segment metric as well, since
  // segment distance dominates line distance.)
  for (int f = 0; f < 6; ++f) {
    bounds.lower = std::max(
        bounds.lower, LineToRectDistance(Vec3{}, end_c, ob.box().Face(f)));
  }

  if (bounds.lower > bounds.upper) bounds.lower = bounds.upper;
  return bounds;
}

}  // namespace bqs
