#include "trajectory/deviation.h"

namespace bqs {

double BufferDeviation(std::span<const TrackPoint> buffer, Vec2 a, Vec2 b,
                       DistanceMetric metric) {
  double dev = 0.0;
  for (const TrackPoint& p : buffer) {
    dev = std::max(dev, PointDeviation(p.pos, a, b, metric));
  }
  return dev;
}

}  // namespace bqs
