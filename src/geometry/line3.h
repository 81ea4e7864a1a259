// 3-D line/segment distance primitives for the 3-D BQS variant.
#ifndef BQS_GEOMETRY_LINE3_H_
#define BQS_GEOMETRY_LINE3_H_

#include "geometry/line2.h"
#include "geometry/vec3.h"

namespace bqs {

/// Distance from p to the infinite line through a and b.
/// When a == b it is the distance |p - a|.
double PointToLineDistance3(Vec3 p, Vec3 a, Vec3 b);

/// Distance from p to the closed segment [a, b].
double PointToSegmentDistance3(Vec3 p, Vec3 a, Vec3 b);

/// Dispatches on `metric` (the 3-D counterpart of the 2-D PointDeviation).
double PointDeviation(Vec3 p, Vec3 a, Vec3 b, DistanceMetric metric);

/// Parameter t of the orthogonal projection of p onto a + t*(b-a); 0 if a==b.
double ProjectParam3(Vec3 p, Vec3 a, Vec3 b);

/// Closest point to p on segment [a, b].
Vec3 ClosestPointOnSegment3(Vec3 p, Vec3 a, Vec3 b);

/// Shortest distance between the infinite line through (a, b) and the closed
/// segment [c, d]. Used for line-to-box-face lower bounds in 3-D BQS.
double LineToSegmentDistance3(Vec3 a, Vec3 b, Vec3 c, Vec3 d);

}  // namespace bqs

#endif  // BQS_GEOMETRY_LINE3_H_
