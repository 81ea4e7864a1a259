#include "trajectory/compressor.h"

namespace bqs {

CompressedTrajectory CompressAll(StreamCompressor& compressor,
                                 std::span<const TrackPoint> points) {
  CompressedTrajectory out;
  out.keys.reserve(CompressedSizeHint(points.size()));
  compressor.Reset();
  compressor.PushBatch(points, &out.keys);
  compressor.Finish(&out.keys);
  return out;
}

}  // namespace bqs
