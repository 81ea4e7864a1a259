#ifndef BQS_COMMON_SIMD_LANES_H_
#define BQS_COMMON_SIMD_LANES_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/simd.h"

// Width-generic kernel bodies, instantiated once per vector tier with a
// lane-wrapper type V (simd_avx2.cc / simd_sse2.cc). This header is
// intrinsics-free: V supplies the lane ops, this file supplies the exact
// scalar expressions replicated per lane. Keeping one body for both
// widths is what makes the byte-identity argument auditable — there is a
// single place to compare against the scalar kernel in
// src/core/segment_state.cc and src/core/bounds.cc.
//
// Required V interface:
//   static constexpr std::size_t kLanes;
//   static V Broadcast(double), Zero(), LoadU(const double*);
//   static void GatherXY(const double* p, V* x, V* y);
//       // kLanes (x, y) pairs, kPointStrideDoubles apart
//   void StoreU(double*) const;
//   operators + - * ; V Abs() const;
//   static V Min(V, V), Max(V, V);              // lane-wise minpd/maxpd
//   V Le(V) const, Lt(V) const, Gt(V) const,    // ordered compares
//     Eq(V) const, NeUQ(V) const;               // NeUQ: unordered-or-!=
//   V And(V) const, Or(V) const; static V AndNot(V a, V b);  // ~a & b
//   static V Select(V mask, V a, V b);          // mask ? a : b
//   int MoveMask() const;                       // sign bit per lane
//   double Lane(std::size_t) const;

namespace bqs::simd::lanes {

template <typename V>
inline void PrepareRotatedImpl(const double* points, std::size_t n,
                               double origin_x, double origin_y,
                               double rot_cos, double rot_sin, double* rx,
                               double* ry, double* nsq) {
  constexpr std::size_t kW = V::kLanes;
  const V ox = V::Broadcast(origin_x);
  const V oy = V::Broadcast(origin_y);
  std::size_t i = 0;
  if (rot_sin == 0.0 && rot_cos == 1.0) {
    // Exact identity rotation — the guaranteed state of every
    // pre-rotation segment, where most of the stream lives. Skipping the
    // rotation multiplies also skips their signed-zero rewrites, matching
    // the identical shortcut in SegmentEngine::ToRotatedFrame bit for
    // bit.
    for (; i + kW <= n; i += kW) {
      V px, py;
      V::GatherXY(points + i * kPointStrideDoubles, &px, &py);
      const V relx = px - ox;
      const V rely = py - oy;
      (relx * relx + rely * rely).StoreU(nsq + i);
      relx.StoreU(rx + i);
      rely.StoreU(ry + i);
    }
    for (; i < n; ++i) {
      const double* p = points + i * kPointStrideDoubles;
      const double relx = p[0] - origin_x;
      const double rely = p[1] - origin_y;
      nsq[i] = relx * relx + rely * rely;
      rx[i] = relx;
      ry[i] = rely;
    }
    return;
  }
  const V c = V::Broadcast(rot_cos);
  const V s = V::Broadcast(rot_sin);
  const V ns = V::Broadcast(-rot_sin);
  for (; i + kW <= n; i += kW) {
    V px, py;
    V::GatherXY(points + i * kPointStrideDoubles, &px, &py);
    const V relx = px - ox;
    const V rely = py - oy;
    (relx * relx + rely * rely).StoreU(nsq + i);
    (c * relx + s * rely).StoreU(rx + i);
    (ns * relx + c * rely).StoreU(ry + i);
  }
  for (; i < n; ++i) {
    const double* p = points + i * kPointStrideDoubles;
    const double relx = p[0] - origin_x;
    const double rely = p[1] - origin_y;
    nsq[i] = relx * relx + rely * rely;
    rx[i] = rot_cos * relx + rot_sin * rely;
    ry[i] = -rot_sin * relx + rot_cos * rely;
  }
}

template <typename V>
inline void PrepareTrivialImpl(const double* points, std::size_t n,
                               double origin_x, double origin_y,
                               double eps_sq, unsigned char* verdicts) {
  constexpr std::size_t kW = V::kLanes;
  const V ox = V::Broadcast(origin_x);
  const V oy = V::Broadcast(origin_y);
  const V eps = V::Broadcast(eps_sq);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V px, py;
    V::GatherXY(points + i * kPointStrideDoubles, &px, &py);
    const V relx = px - ox;
    const V rely = py - oy;
    const int mask = (relx * relx + rely * rely).Le(eps).MoveMask();
    for (std::size_t k = 0; k < kW; ++k) {
      verdicts[i + k] = static_cast<unsigned char>((mask >> k) & 1);
    }
  }
  // Scalar tail: leave the decision to the per-point path.
  for (; i < n; ++i) verdicts[i] = 0;
}

template <typename V>
inline void ScreenLanesImpl(const ScreenState& state, const double* rx,
                            const double* ry, const double* nsq, std::size_t n,
                            unsigned char* verdicts) {
  constexpr std::size_t kW = V::kLanes;
  const V zero = V::Zero();
  const V eps_sq = V::Broadcast(state.eps_sq);
  const V all = zero.Eq(zero);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const V x = V::LoadU(rx + i);
    const V y = V::LoadU(ry + i);
    const V q = V::LoadU(nsq + i);
    // Trivial test: |rel|^2 <= eps^2 (ordered, so NaN lanes decline
    // here exactly as the scalar compare does).
    const V trivial = q.Le(eps_sq);
    if (state.mode == ScreenMode::kWarmup) {
      V ok = trivial;
      if (ok.MoveMask() == 0) {
        for (std::size_t k = 0; k < kW; ++k) verdicts[i + k] = 0;
        continue;
      }
      // Fallback hazard handled scalar-side: a degenerate end (the scalar
      // verdict reports 0 and recomputes via the reference scan).
      const V xz = x.Eq(zero);
      const V yz = y.Eq(zero);
      ok = V::AndNot(xz.And(yz), ok);
      // Pre-rotation warm-up verdict, lane-parallel: max |end x (p - a)|
      // over the buffered warm-up candidates must land conclusively below
      // the guard band (verdict +1), i.e. vmax^2 <= eps^2 * |end|^2 *
      // (1 - 1e-12). The candidates are marshalled relative to the
      // segment start with the same subtraction the scalar scan performs,
      // and the cross/threshold expressions match it term for term.
      V vmax = zero;
      for (int k = 0; k < state.warm_count; ++k) {
        const V v = x * V::Broadcast(state.warm_py[k]) -
                    y * V::Broadcast(state.warm_px[k]);
        vmax = V::Max(vmax, v.Abs());
      }
      const V threshold = eps_sq * (x * x + y * y);
      ok = ok.And(
          (vmax * vmax).Le(threshold * V::Broadcast(1.0 - 1e-12)));
      const int mask = ok.MoveMask();
      for (std::size_t k = 0; k < kW; ++k) {
        verdicts[i + k] = static_cast<unsigned char>((mask >> k) & 1);
      }
      continue;
    }
    // kQuadrant: the conclusive-include proof is the same for every lane
    // (it replays FastAssess's upper-bound include condition exactly), so
    // the screen is not gated on the trivial test — a non-trivial lane
    // that proves conclusive is reported as verdict 2, which lets the
    // batch loop skip the scalar bound composition and go straight to the
    // include effects (quadrant add + exact-state append).
    V ok = all;
    // Degenerate end: FastAssess's reference fallback. (Always trivial —
    // |rel|^2 == 0 — but excluded explicitly for the proof.)
    const V xz = x.Eq(zero);
    const V yz = y.Eq(zero);
    ok = V::AndNot(xz.And(yz), ok);
    // The near-axis sliver guard is a further scalar-side hazard
    // (mn != 0 && mn <= 1e-12 * mx over |coords|).
    const V ax = x.Abs();
    const V ay = y.Abs();
    const V mn = V::Min(ax, ay);
    const V mx = V::Max(ax, ay);
    const V sliver = mn.NeUQ(zero).And(mn.Le(V::Broadcast(1e-12) * mx));
    ok = V::AndNot(sliver, ok);
    // Quadrant parity of the end point, matching QuadrantOf(): odd
    // quadrants (1, 3) are x>0&&y<0, x<0&&y>0, or x==0&&y!=0.
    const V xgt = x.Gt(zero);
    const V xlt = x.Lt(zero);
    const V ygt = y.Gt(zero);
    const V ylt = y.Lt(zero);
    const V odd = xgt.And(ylt).Or(xlt.And(ygt)).Or(
        V::AndNot(xgt.Or(xlt), ygt.Or(ylt)));
    // Upper-bound composition: per occupied quadrant, max |end x p| over
    // the lane-selected candidate set (in-quadrant set when the end's
    // parity matches, the four corners otherwise), max-merged across
    // quadrants. All values are fabs results, so the max tree commutes
    // bitwise with the scalar reduction order.
    V upper = zero;
    for (int qi = 0; qi < state.num_quads; ++qi) {
      const ScreenQuadrant& sq = state.quads[qi];
      const V in_q = sq.parity != 0 ? odd : V::AndNot(odd, all);
      V up_in = zero;
      for (int k = 0; k < sq.in_count; ++k) {
        const V v = x * V::Broadcast(sq.in_py[k]) -
                    y * V::Broadcast(sq.in_px[k]);
        up_in = V::Max(up_in, v.Abs());
      }
      V up_out = zero;
      for (int k = 0; k < 4; ++k) {
        const V v = x * V::Broadcast(sq.out_py[k]) -
                    y * V::Broadcast(sq.out_px[k]);
        up_out = V::Max(up_out, v.Abs());
      }
      upper = V::Max(upper, V::Select(in_q, up_in, up_out));
      if (sq.wedge_blocked) ok = V::AndNot(in_q, ok);
    }
    // Conclusive include in the squared domain, below the guard band:
    // upper^2 <= eps^2 * |end|^2 * (1 - 1e-12).
    const V threshold = eps_sq * (x * x + y * y);
    ok = ok.And((upper * upper).Le(threshold * V::Broadcast(1.0 - 1e-12)));
    const int inc = ok.MoveMask();
    const int triv = trivial.MoveMask();
    for (std::size_t k = 0; k < kW; ++k) {
      const unsigned char t = static_cast<unsigned char>((triv >> k) & 1);
      verdicts[i + k] =
          ((inc >> k) & 1) != 0 ? static_cast<unsigned char>(2 - t) : 0;
    }
  }
  // Scalar tail: leave the decision to the per-point path.
  for (; i < n; ++i) verdicts[i] = 0;
}

template <typename V>
inline double MaxAbsCrossImpl(const double* x, const double* y, std::size_t n,
                              double dx, double dy) {
  constexpr std::size_t kW = V::kLanes;
  const V vdx = V::Broadcast(dx);
  const V vdy = V::Broadcast(dy);
  V acc = V::Zero();
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    acc = V::Max(acc, (vdx * V::LoadU(y + i) - vdy * V::LoadU(x + i)).Abs());
  }
  double vmax = 0.0;
  for (std::size_t k = 0; k < kW; ++k) vmax = std::max(vmax, acc.Lane(k));
  for (; i < n; ++i) vmax = std::max(vmax, std::fabs(dx * y[i] - dy * x[i]));
  return vmax;
}

}  // namespace bqs::simd::lanes

#endif  // BQS_COMMON_SIMD_LANES_H_
