// The per-quadrant bounding structure at the heart of the BQS (paper
// Section V-B): a minimum bounding box over the quadrant's buffered points
// plus two angular bounding lines recording the smallest and greatest angle
// from the origin to any point. The box corners and the intersections of
// the bounding lines with the box are the "significant points" from which
// the deviation bounds of Theorems 5.3-5.5 are computed.
//
// Two maintenance kernels feed the same state:
//  - AddCross(): transcendental-free. Within one quadrant every pair of
//    directions is less than a quarter turn apart, so angular order is
//    exactly the sign of the 2-D cross product; the extreme-angle points
//    are tracked by two cross comparisons and no angle is ever computed.
//  - Add()/AddWithAngle(): the seed's atan2-based tracking, kept as the
//    reference kernel the engine's tests select through
//    internal::KernelOracle, and for differential tests.
// Both use strict comparisons, so ties (equal angle / zero cross — e.g.
// collinear scalings of the same direction, or +-0.0 coordinates on the
// same axis) keep the earlier point. Distinct directions within ~1e-12
// rad of each other sit in a guard band where atan2 rounding could
// collapse an order the exact cross product resolves; AddCross detects
// the band and replicates the reference's theta compare there, so the
// two kernels select bit-identical extreme points on every input.
//
// The significant points depend only on the box and the two extreme-angle
// points — not on the candidate end point — so they are cached and only
// invalidated when the quadrant absorbs a point.
//
// All coordinates are relative to the segment start point (the quadrant
// system's origin), already rotated if data-centric rotation is active.
#ifndef BQS_CORE_QUADRANT_BOUND_H_
#define BQS_CORE_QUADRANT_BOUND_H_

#include <array>
#include <cstdint>

#include "geometry/box2.h"
#include "geometry/vec2.h"

namespace bqs {

/// Verdict of the fast wedge-membership test against one slack boundary:
/// +1 definitely inside, -1 definitely outside, 0 inside the guard band
/// (caller falls back). `t` is the signed cross product; `slack_sq` is
/// the square of the reference's relative slack for this pair. The
/// reference condition is t >= -slack: t >= 0 settles it; t < 0 reduces
/// to t^2 <= slack^2, tested with a relative band wide enough to absorb
/// the reference's hypot-vs-NormSq rounding (~1e-15 relative vs a 1e-10
/// band). The test is end-independent, which is what lets
/// ComputeSignificant() classify the corners once per quadrant mutation
/// (SignificantPoints::corner_in_wedge / wedge_ok) instead of the fast
/// composition and the vector screen redoing it per point.
inline int FastWedgeSide(double t, double slack_sq) {
  if (t >= 0.0) return 1;
  const double t2 = t * t;
  if (t2 <= slack_sq * (1.0 - 1e-10)) return 1;
  if (t2 >= slack_sq * (1.0 + 1e-10)) return -1;
  return 0;
}

/// One quadrant's bounding state. Constant-size: a box, two angles, and a
/// point count — this is what makes FBQS O(1) space.
class QuadrantBound {
 public:
  QuadrantBound() : QuadrantBound(0) {}
  /// `quadrant` in {0,1,2,3}; see QuadrantOf() for the angular convention.
  explicit QuadrantBound(int quadrant);

  /// Clears to the empty state (keeps the quadrant id).
  void Reset();

  /// Folds a point (relative to the origin) into the box and angular
  /// bounds, tracking the angular extremes with atan2 (reference kernel).
  /// Precondition: QuadrantOf(p) == quadrant() and p != (0,0).
  void Add(Vec2 p);

  /// Add() with the angle already in hand: `theta` must be
  /// NormalizeAngle2Pi(atan2(p.y, p.x)). Lets the engine classify and add
  /// from one atan2 per point instead of two (hoisted classification).
  void AddWithAngle(Vec2 p, double theta);

  /// Transcendental-free Add(): tracks the angular extremes by cross
  /// products (see the file comment for the tie semantics). The stored
  /// min/max angles stay unset; min_angle()/max_angle() derive them on
  /// demand for diagnostics. Returns true when a pair of distinct
  /// directions fell inside the ~1e-12 rad guard band where atan2
  /// rounding could order them differently and the reference's theta
  /// compare was replicated instead (the engine counts it as a kernel
  /// fallback); false on the pure cross-product path.
  ///
  /// `changed`, when non-null, is set to whether the call changed the
  /// bounding geometry (box or extreme points) at all. Interior points of
  /// a well-covered quadrant leave it false, in which case the cached
  /// significant points — and anything derived from them, like the vector
  /// screen's marshalled candidate sets — remain valid.
  bool AddCross(Vec2 p, bool* changed = nullptr);

  bool empty() const { return count_ == 0; }
  uint64_t count() const { return count_; }
  int quadrant() const { return quadrant_; }
  const Box2& box() const { return box_; }
  /// Smallest/greatest angle (in [0, 2*pi), within the quadrant's range)
  /// from the origin to any added point. Under AddCross maintenance these
  /// are computed on demand from the extreme points (cold diagnostics
  /// path); under Add they are the incrementally tracked values.
  double min_angle() const;
  double max_angle() const;

  /// The (at most 8) significant points of this quadrant system: the four
  /// bounding-box corners and the entry/exit intersections of each
  /// bounding line with the box. Some may coincide (paper: "some of the
  /// points may overlap").
  struct SignificantPoints {
    std::array<Vec2, 4> corners;  ///< c1..c4 (CCW from box min).
    Vec2 l1, l2;  ///< Lower bounding line: entry (near) / exit (far).
    Vec2 u1, u2;  ///< Upper bounding line: entry (near) / exit (far).
    Vec2 near_corner;  ///< Corner closest to the origin (c_n).
    Vec2 far_corner;   ///< Corner farthest from the origin (c_f).
    /// Indices of near_corner/far_corner within `corners` (they are
    /// bitwise copies of those entries), so value computations over the
    /// corner set can be reused instead of re-evaluated.
    std::size_t near_corner_index = 0;
    std::size_t far_corner_index = 0;
    /// The buffered points that realize the extreme angles. Kept so the
    /// bound computation stays sound when a bounding ray grazes a box
    /// corner and the ray/box intersection degenerates numerically.
    Vec2 min_angle_point, max_angle_point;
    /// End-independent wedge classification of the corners against the
    /// angular extremes (fast kernel): corner_in_wedge[i] marks corners
    /// strictly inside the wedge (their value joins the in-quadrant upper
    /// bound); wedge_ok is false when any corner sits inside the guard
    /// band of the wedge test, forcing in-quadrant ends to the reference
    /// fallback. Cached here because the per-end fast composition would
    /// otherwise redo eight cross products per point.
    std::array<bool, 4> corner_in_wedge{};
    bool wedge_ok = true;
  };

  /// The significant points, cached: recomputed at most once per
  /// geometry-changing Add*() and shared by every bounds query until the
  /// next such mutation (the fast kernel's per-push saving).
  /// Precondition: !empty().
  const SignificantPoints& Significant() const {
    if (!sig_valid_) {
      sig_cache_ = ComputeSignificant();
      sig_valid_ = true;
    }
    return sig_cache_;
  }

  /// Unconditionally recomputes the significant points (the seed's
  /// per-push cost; reference kernel and the cached-vs-recomputed micro
  /// bench). Bit-identical to Significant(). Precondition: !empty().
  SignificantPoints ComputeSignificant() const;

 private:
  int quadrant_;
  uint64_t count_ = 0;
  Box2 box_;
  double min_angle_ = 0.0;
  double max_angle_ = 0.0;
  Vec2 min_angle_point_;
  Vec2 max_angle_point_;
  mutable SignificantPoints sig_cache_{};
  mutable bool sig_valid_ = false;
};

}  // namespace bqs

#endif  // BQS_CORE_QUADRANT_BOUND_H_
