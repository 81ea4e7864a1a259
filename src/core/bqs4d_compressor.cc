#include "core/bqs4d_compressor.h"

#include <algorithm>
#include <limits>

namespace bqs {

void OrthantBound4::Reset() {
  count_ = 0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  min_ = Vec4{kInf, kInf, kInf, kInf};
  max_ = Vec4{-kInf, -kInf, -kInf, -kInf};
  extremes_ = {};
}

void OrthantBound4::Add(Vec4 p) {
  if (count_ == 0) Reset();
  ++count_;
  const double pv[4] = {p.x, p.y, p.z, p.w};
  double mn[4] = {min_.x, min_.y, min_.z, min_.w};
  double mx[4] = {max_.x, max_.y, max_.z, max_.w};
  for (std::size_t axis = 0; axis < 4; ++axis) {
    if (pv[axis] < mn[axis]) {
      mn[axis] = pv[axis];
      extremes_[axis * 2] = p;
    }
    if (pv[axis] > mx[axis]) {
      mx[axis] = pv[axis];
      extremes_[axis * 2 + 1] = p;
    }
  }
  min_ = Vec4{mn[0], mn[1], mn[2], mn[3]};
  max_ = Vec4{mx[0], mx[1], mx[2], mx[3]};
}

std::array<Vec4, 16> OrthantBound4::Corners() const {
  std::array<Vec4, 16> out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = Vec4{(i & 1) ? max_.x : min_.x, (i & 2) ? max_.y : min_.y,
                  (i & 4) ? max_.z : min_.z, (i & 8) ? max_.w : min_.w};
  }
  return out;
}

int Orthant4dPolicy::OrthantOf(Vec4 v) {
  int idx = 0;
  if (v.x < 0.0) idx |= 1;
  if (v.y < 0.0) idx |= 2;
  if (v.z < 0.0) idx |= 4;
  if (v.w < 0.0) idx |= 8;
  return idx;
}

DeviationBounds Orthant4dPolicy::Bounds(const OrthantBound4& o, Vec4 end,
                                        DistanceMetric metric) {
  // Upper: max over hyper-box corners (convexity; sound in any dimension).
  // Lower: max over actual extreme points.
  DeviationBounds b;
  for (const Vec4& c : o.Corners()) {
    b.upper = std::max(b.upper, PointDeviation(c, Vec4{}, end, metric));
  }
  for (const Vec4& p : o.extreme_points()) {
    b.lower = std::max(b.lower, PointDeviation(p, Vec4{}, end, metric));
  }
  if (b.lower > b.upper) b.lower = b.upper;
  return b;
}

}  // namespace bqs
