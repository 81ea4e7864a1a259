// AVX2 4-wide kernel tier. This translation unit (and simd_sse2.cc) are
// the only files allowed to touch intrinsics — repo_lint enforces the
// containment. The file is compiled with -mavx2 (see CMakeLists.txt);
// its functions are only ever reached through the dispatch table after
// DetectedTier() has confirmed AVX2 support.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>

#include "common/simd.h"
#include "common/simd_lanes.h"

namespace bqs::simd {
namespace {

struct V4 {
  __m256d v;

  static constexpr std::size_t kLanes = 4;
  static V4 Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static V4 Zero() { return {_mm256_setzero_pd()}; }
  static V4 LoadU(const double* p) { return {_mm256_loadu_pd(p)}; }
  void StoreU(double* p) const { _mm256_storeu_pd(p, v); }

  friend V4 operator+(V4 a, V4 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend V4 operator-(V4 a, V4 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend V4 operator*(V4 a, V4 b) { return {_mm256_mul_pd(a.v, b.v)}; }

  V4 Abs() const {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), v)};
  }
  static V4 Min(V4 a, V4 b) { return {_mm256_min_pd(a.v, b.v)}; }
  static V4 Max(V4 a, V4 b) { return {_mm256_max_pd(a.v, b.v)}; }

  V4 Le(V4 o) const { return {_mm256_cmp_pd(v, o.v, _CMP_LE_OQ)}; }
  V4 Lt(V4 o) const { return {_mm256_cmp_pd(v, o.v, _CMP_LT_OQ)}; }
  V4 Gt(V4 o) const { return {_mm256_cmp_pd(v, o.v, _CMP_GT_OQ)}; }
  V4 Eq(V4 o) const { return {_mm256_cmp_pd(v, o.v, _CMP_EQ_OQ)}; }
  V4 NeUQ(V4 o) const { return {_mm256_cmp_pd(v, o.v, _CMP_NEQ_UQ)}; }

  V4 And(V4 o) const { return {_mm256_and_pd(v, o.v)}; }
  V4 Or(V4 o) const { return {_mm256_or_pd(v, o.v)}; }
  static V4 AndNot(V4 a, V4 b) { return {_mm256_andnot_pd(a.v, b.v)}; }
  static V4 Select(V4 mask, V4 a, V4 b) {
    return {_mm256_blendv_pd(b.v, a.v, mask.v)};
  }

  int MoveMask() const { return _mm256_movemask_pd(v); }
  double Lane(std::size_t k) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[k];
  }

  // Strided (x, y) pair gather for kLanes consecutive points whose two
  // leading doubles are x then y: four 128-bit pair loads and a 4x2
  // transpose (pure loads and lane moves — the values are bit-identical
  // to scalar loads, just cheaper than eight of them).
  static void GatherXY(const double* p, V4* x, V4* y) {
    constexpr std::size_t kStride = kPointStrideDoubles;
    const __m128d p0 = _mm_loadu_pd(p);
    const __m128d p1 = _mm_loadu_pd(p + kStride);
    const __m128d p2 = _mm_loadu_pd(p + 2 * kStride);
    const __m128d p3 = _mm_loadu_pd(p + 3 * kStride);
    const __m256d a02 = _mm256_insertf128_pd(_mm256_castpd128_pd256(p0), p2, 1);
    const __m256d a13 = _mm256_insertf128_pd(_mm256_castpd128_pd256(p1), p3, 1);
    x->v = _mm256_unpacklo_pd(a02, a13);
    y->v = _mm256_unpackhi_pd(a02, a13);
  }
};

void PrepareRotatedAvx2(const double* points, std::size_t n, double origin_x,
                        double origin_y, double rot_cos, double rot_sin,
                        double* rx, double* ry, double* nsq) {
  lanes::PrepareRotatedImpl<V4>(points, n, origin_x, origin_y, rot_cos,
                                rot_sin, rx, ry, nsq);
}

void ScreenLanesAvx2(const ScreenState& state, const double* rx,
                     const double* ry, const double* nsq, std::size_t n,
                     unsigned char* verdicts) {
  lanes::ScreenLanesImpl<V4>(state, rx, ry, nsq, n, verdicts);
}

double MaxAbsCrossAvx2(const double* x, const double* y, std::size_t n,
                       double dx, double dy) {
  return lanes::MaxAbsCrossImpl<V4>(x, y, n, dx, dy);
}

void PrepareTrivialAvx2(const double* points, std::size_t n, double origin_x,
                        double origin_y, double eps_sq,
                        unsigned char* verdicts) {
  lanes::PrepareTrivialImpl<V4>(points, n, origin_x, origin_y, eps_sq,
                                verdicts);
}

}  // namespace

namespace internal {
const KernelTable kAvx2Kernels = {PrepareRotatedAvx2, ScreenLanesAvx2,
                                  PrepareTrivialAvx2, MaxAbsCrossAvx2,
                                  Tier::kAvx2, 4};
}  // namespace internal

}  // namespace bqs::simd

#endif  // x86-64
