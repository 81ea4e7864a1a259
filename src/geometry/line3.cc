#include "geometry/line3.h"

#include <algorithm>
#include <cmath>

#include "common/math_utils.h"

namespace bqs {

double PointToLineDistance3(Vec3 p, Vec3 a, Vec3 b) {
  const Vec3 d = b - a;
  const double len = d.Norm();
  if (len == 0.0) return Distance(p, a);
  return d.Cross(p - a).Norm() / len;
}

double ProjectParam3(Vec3 p, Vec3 a, Vec3 b) {
  const Vec3 d = b - a;
  const double den = d.NormSq();
  if (den == 0.0) return 0.0;
  return d.Dot(p - a) / den;
}

Vec3 ClosestPointOnSegment3(Vec3 p, Vec3 a, Vec3 b) {
  const double t = Clamp(ProjectParam3(p, a, b), 0.0, 1.0);
  return a + t * (b - a);
}

double PointToSegmentDistance3(Vec3 p, Vec3 a, Vec3 b) {
  return Distance(p, ClosestPointOnSegment3(p, a, b));
}

double PointDeviation(Vec3 p, Vec3 a, Vec3 b, DistanceMetric metric) {
  return metric == DistanceMetric::kPointToLine
             ? PointToLineDistance3(p, a, b)
             : PointToSegmentDistance3(p, a, b);
}

double LineToSegmentDistance3(Vec3 a, Vec3 b, Vec3 c, Vec3 d) {
  const Vec3 u = b - a;  // line direction
  const Vec3 v = d - c;  // segment direction
  const double uu = u.NormSq();
  if (uu == 0.0) return PointToSegmentDistance3(a, c, d);
  const double vv = v.NormSq();
  if (vv == 0.0) return PointToLineDistance3(c, a, b);

  // Minimize |(a + s*u) - (c + t*v)| over s in R, t in [0, 1].
  const Vec3 w = a - c;
  const double uv = u.Dot(v);
  const double uw = u.Dot(w);
  const double vw = v.Dot(w);
  const double den = uu * vv - uv * uv;

  double t;
  if (den <= 1e-14 * uu * vv) {
    // Parallel: any t gives the same perpendicular distance; clamp endpoints.
    t = 0.0;
  } else {
    // Stationary point of |w + s*u - t*v|^2 over (s, t).
    t = (uu * vw - uv * uw) / den;
  }
  t = Clamp(t, 0.0, 1.0);
  // With t fixed, the optimum over the unconstrained line is the
  // point-to-line distance from (c + t*v).
  const Vec3 pt = c + t * v;
  double best = PointToLineDistance3(pt, a, b);
  // Clamping may move the optimum to a segment endpoint; check both.
  best = std::min(best, PointToLineDistance3(c, a, b));
  best = std::min(best, PointToLineDistance3(d, a, b));
  return best;
}

}  // namespace bqs
