// Deviation bounds for the 3-D BQS. The upper bound is the max distance
// from a significant-point set to the path; with the clipped hull that set
// provably contains every buffered point (distance-to-line is convex, so
// its max over a convex polytope is attained at a vertex). The lower bound
// generalizes the 2-D edge argument: every prism face carries at least one
// buffered point, so the max deviation is at least the distance from the
// path line to the farthest face.
#ifndef BQS_CORE_BOUNDS3D_H_
#define BQS_CORE_BOUNDS3D_H_

#include <array>
#include <span>

#include "core/bounds.h"
#include "core/octant_bound.h"
#include "geometry/line3.h"
#include "geometry/vec3.h"

namespace bqs {

/// Bounds on the max deviation of the points summarized by `ob` to the
/// 3-D path from the origin to `end` (original frame, relative to the
/// octant system's origin). The upper bound is the max distance over
/// `significant` (canonical frame), so it is sound only when their hull
/// contains every summarized point: ob.HullVertices() does; the paper's
/// ob.PaperSignificantPoints() can shave corners and under-estimate.
/// Precondition: !ob.empty() and end != 0.
DeviationBounds OctantDeviationBounds(const OctantBound& ob, Vec3 end,
                                      DistanceMetric metric,
                                      std::span<const Vec3> significant);

/// Distance from the infinite line (a, b) to a rectangle given by its four
/// corners (coplanar); 0 when the line pierces the rectangle. Exposed for
/// tests.
double LineToRectDistance(Vec3 a, Vec3 b, const std::array<Vec3, 4>& rect);

}  // namespace bqs

#endif  // BQS_CORE_BOUNDS3D_H_
