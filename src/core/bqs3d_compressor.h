// The 3-D BQS compressor (paper Section V-G): octant systems with bounding
// prisms and bounding planes replace the 2-D quadrant systems. Exact mode
// mirrors BQS (buffer + scan on inconclusive bounds); fast mode mirrors
// FBQS (constant space, aggressive split).
#ifndef BQS_CORE_BQS3D_COMPRESSOR_H_
#define BQS_CORE_BQS3D_COMPRESSOR_H_

#include <string_view>

#include "core/bounds3d.h"
#include "core/octant_bound.h"
#include "core/orthant_compressor.h"
#include "core/point3.h"
#include "geometry/angle.h"
#include "geometry/line3.h"

namespace bqs {

/// The 3-D bound policy: the upper bound is taken over the vertices of the
/// clipped hull (prism intersect wedges), which provably contains every
/// point an octant summarizes.
struct Octant3dPolicy {
  using Vec = Vec3;
  using Point = TrackPoint3;
  using Key = KeyPoint3;
  using Compressed = CompressedTrajectory3;
  using Bound = OctantBound;
  static constexpr std::size_t kOrthants = 8;
  static constexpr std::string_view kExactName = "BQS3D";
  static constexpr std::string_view kFastName = "FBQS3D";

  static int OrthantOf(Vec3 v) { return OctantOf(v); }
  static DeviationBounds Bounds(const OctantBound& o, Vec3 end,
                                DistanceMetric metric) {
    return OctantDeviationBounds(o, end, metric, o.HullVertices());
  }
};

/// Online, error-bounded 3-D trajectory compressor.
using Bqs3dCompressor = OrthantCompressor<Octant3dPolicy>;

}  // namespace bqs

#endif  // BQS_CORE_BQS3D_COMPRESSOR_H_
