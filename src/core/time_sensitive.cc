#include "core/time_sensitive.h"

namespace bqs {

TimeSensitiveCompressor::TimeSensitiveCompressor(
    const TimeSensitiveOptions& options)
    : options_(options),
      inner_(BqsOptions{options.epsilon, DistanceMetric::kPointToLine},
             options.exact) {}

TrackPoint3 TimeSensitiveCompressor::Lift(const TrackPoint& pt) const {
  TrackPoint3 out;
  out.pos = Vec3{pt.pos.x, pt.pos.y, (pt.t - t0_) * options_.time_scale};
  out.t = pt.t;
  return out;
}

void TimeSensitiveCompressor::Push(const TrackPoint& pt,
                                   std::vector<KeyPoint>* out) {
  if (!have_t0_) {
    have_t0_ = true;
    t0_ = pt.t;
  }
  inner_.Push(Lift(pt), &pending_);
  Drain(out);
}

void TimeSensitiveCompressor::Finish(std::vector<KeyPoint>* out) {
  inner_.Finish(&pending_);
  Drain(out);
}

void TimeSensitiveCompressor::Reset() {
  inner_.Reset();
  pending_.clear();
  have_t0_ = false;
  t0_ = 0.0;
}

void TimeSensitiveCompressor::Drain(std::vector<KeyPoint>* out) {
  for (const KeyPoint3& k : pending_) {
    KeyPoint flat;
    flat.index = k.index;
    flat.point.pos = k.point.pos.XY();
    flat.point.t = k.point.t;
    out->push_back(flat);
  }
  pending_.clear();
}

}  // namespace bqs
