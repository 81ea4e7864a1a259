// SSE2 2-wide kernel tier: the x86-64 baseline, so this file needs no
// extra compile flags, but it still lives behind the dispatch layer and
// the same intrinsics-containment lint rule as the AVX2 tier.

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <cstddef>

#include "common/simd.h"
#include "common/simd_lanes.h"

namespace bqs::simd {
namespace {

struct V2 {
  __m128d v;

  static constexpr std::size_t kLanes = 2;
  static V2 Broadcast(double x) { return {_mm_set1_pd(x)}; }
  static V2 Zero() { return {_mm_setzero_pd()}; }
  static V2 LoadU(const double* p) { return {_mm_loadu_pd(p)}; }
  void StoreU(double* p) const { _mm_storeu_pd(p, v); }

  friend V2 operator+(V2 a, V2 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend V2 operator-(V2 a, V2 b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend V2 operator*(V2 a, V2 b) { return {_mm_mul_pd(a.v, b.v)}; }

  V2 Abs() const { return {_mm_andnot_pd(_mm_set1_pd(-0.0), v)}; }
  static V2 Min(V2 a, V2 b) { return {_mm_min_pd(a.v, b.v)}; }
  static V2 Max(V2 a, V2 b) { return {_mm_max_pd(a.v, b.v)}; }

  V2 Le(V2 o) const { return {_mm_cmple_pd(v, o.v)}; }
  V2 Lt(V2 o) const { return {_mm_cmplt_pd(v, o.v)}; }
  V2 Gt(V2 o) const { return {_mm_cmpgt_pd(v, o.v)}; }
  V2 Eq(V2 o) const { return {_mm_cmpeq_pd(v, o.v)}; }
  V2 NeUQ(V2 o) const { return {_mm_cmpneq_pd(v, o.v)}; }

  V2 And(V2 o) const { return {_mm_and_pd(v, o.v)}; }
  V2 Or(V2 o) const { return {_mm_or_pd(v, o.v)}; }
  static V2 AndNot(V2 a, V2 b) { return {_mm_andnot_pd(a.v, b.v)}; }
  static V2 Select(V2 mask, V2 a, V2 b) {
    // SSE2 has no blendv; compare masks are all-ones/all-zero lanes, so
    // the and/andnot form is exact.
    return {_mm_or_pd(_mm_and_pd(mask.v, a.v),
                      _mm_andnot_pd(mask.v, b.v))};
  }

  int MoveMask() const { return _mm_movemask_pd(v); }
  double Lane(std::size_t k) const {
    alignas(16) double tmp[2];
    _mm_store_pd(tmp, v);
    return tmp[k];
  }

  // Strided (x, y) pair gather: two 128-bit pair loads and an unpack
  // (bit-identical to scalar loads).
  static void GatherXY(const double* p, V2* x, V2* y) {
    const __m128d p0 = _mm_loadu_pd(p);
    const __m128d p1 = _mm_loadu_pd(p + kPointStrideDoubles);
    x->v = _mm_unpacklo_pd(p0, p1);
    y->v = _mm_unpackhi_pd(p0, p1);
  }
};

void PrepareRotatedSse2(const double* points, std::size_t n, double origin_x,
                        double origin_y, double rot_cos, double rot_sin,
                        double* rx, double* ry, double* nsq) {
  lanes::PrepareRotatedImpl<V2>(points, n, origin_x, origin_y, rot_cos,
                                rot_sin, rx, ry, nsq);
}

void ScreenLanesSse2(const ScreenState& state, const double* rx,
                     const double* ry, const double* nsq, std::size_t n,
                     unsigned char* verdicts) {
  lanes::ScreenLanesImpl<V2>(state, rx, ry, nsq, n, verdicts);
}

double MaxAbsCrossSse2(const double* x, const double* y, std::size_t n,
                       double dx, double dy) {
  return lanes::MaxAbsCrossImpl<V2>(x, y, n, dx, dy);
}

void PrepareTrivialSse2(const double* points, std::size_t n, double origin_x,
                        double origin_y, double eps_sq,
                        unsigned char* verdicts) {
  lanes::PrepareTrivialImpl<V2>(points, n, origin_x, origin_y, eps_sq,
                                verdicts);
}

}  // namespace

namespace internal {
const KernelTable kSse2Kernels = {PrepareRotatedSse2, ScreenLanesSse2,
                                  PrepareTrivialSse2, MaxAbsCrossSse2,
                                  Tier::kSse2, 2};
}  // namespace internal

}  // namespace bqs::simd

#endif  // x86-64
