// 4-D vector/point type for the 4-D BQS extension (x, y, altitude, scaled
// time). Header-only.
#ifndef BQS_GEOMETRY_VEC4_H_
#define BQS_GEOMETRY_VEC4_H_

#include <cmath>

#include "geometry/line2.h"
#include "geometry/vec3.h"

namespace bqs {

/// Plain 4-D vector (also used as a point).
struct Vec4 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  double w = 0.0;

  constexpr Vec4() = default;
  constexpr Vec4(double xx, double yy, double zz, double ww)
      : x(xx), y(yy), z(zz), w(ww) {}
  /// Lifts a 3-D point into the w = ww hyper-plane.
  constexpr explicit Vec4(Vec3 v, double ww = 0.0)
      : x(v.x), y(v.y), z(v.z), w(ww) {}

  constexpr Vec4 operator+(Vec4 o) const {
    return {x + o.x, y + o.y, z + o.z, w + o.w};
  }
  constexpr Vec4 operator-(Vec4 o) const {
    return {x - o.x, y - o.y, z - o.z, w - o.w};
  }
  constexpr Vec4 operator*(double k) const {
    return {x * k, y * k, z * k, w * k};
  }
  constexpr Vec4 operator/(double k) const {
    return {x / k, y / k, z / k, w / k};
  }
  constexpr bool operator==(const Vec4&) const = default;

  constexpr double Dot(Vec4 o) const {
    return x * o.x + y * o.y + z * o.z + w * o.w;
  }
  constexpr double NormSq() const { return Dot(*this); }
  double Norm() const { return std::sqrt(NormSq()); }
  constexpr Vec3 XYZ() const { return {x, y, z}; }

  double operator[](int axis) const {
    switch (axis) {
      case 0:
        return x;
      case 1:
        return y;
      case 2:
        return z;
      default:
        return w;
    }
  }
};

constexpr Vec4 operator*(double k, Vec4 v) {
  return {k * v.x, k * v.y, k * v.z, k * v.w};
}

/// Euclidean distance between two points.
inline double Distance(Vec4 a, Vec4 b) { return (a - b).Norm(); }

/// Distance from p to the infinite line through a and b; |p - a| if a == b.
inline double PointToLineDistance4(Vec4 p, Vec4 a, Vec4 b) {
  const Vec4 d = b - a;
  const double len_sq = d.NormSq();
  const Vec4 rel = p - a;
  if (len_sq == 0.0) return rel.Norm();
  const double proj = rel.Dot(d);
  const double perp_sq = rel.NormSq() - proj * proj / len_sq;
  return std::sqrt(perp_sq > 0.0 ? perp_sq : 0.0);
}

/// Distance from p to the closed segment [a, b].
inline double PointToSegmentDistance4(Vec4 p, Vec4 a, Vec4 b) {
  const Vec4 d = b - a;
  const double len_sq = d.NormSq();
  if (len_sq == 0.0) return Distance(p, a);
  double t = (p - a).Dot(d) / len_sq;
  t = t < 0.0 ? 0.0 : (t > 1.0 ? 1.0 : t);
  return Distance(p, a + d * t);
}

/// Dispatches on `metric` (the 4-D counterpart of the 2-D PointDeviation).
inline double PointDeviation(Vec4 p, Vec4 a, Vec4 b, DistanceMetric metric) {
  return metric == DistanceMetric::kPointToLine
             ? PointToLineDistance4(p, a, b)
             : PointToSegmentDistance4(p, a, b);
}

}  // namespace bqs

#endif  // BQS_GEOMETRY_VEC4_H_
