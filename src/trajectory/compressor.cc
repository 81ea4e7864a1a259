#include "trajectory/compressor.h"

namespace bqs {

void StreamCompressor::PushTo(const TrackPoint& pt, KeyPointSink& sink) {
  sink_scratch_.clear();
  Push(pt, &sink_scratch_);
  for (const KeyPoint& key : sink_scratch_) sink.Emit(key);
}

void StreamCompressor::PushBatchTo(std::span<const TrackPoint> points,
                                   KeyPointSink& sink) {
  sink_scratch_.clear();
  PushBatch(points, &sink_scratch_);
  for (const KeyPoint& key : sink_scratch_) sink.Emit(key);
}

void StreamCompressor::FinishTo(KeyPointSink& sink) {
  sink_scratch_.clear();
  Finish(&sink_scratch_);
  for (const KeyPoint& key : sink_scratch_) sink.Emit(key);
}

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
