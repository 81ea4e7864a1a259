#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

namespace bqs::simd {
namespace {

// -1 = no forced tier; otherwise the int value of the forced Tier.
std::atomic<int> g_forced_tier{-1};

Tier DetectOnce() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  // SSE2 is part of the x86-64 baseline.
  return Tier::kSse2;
#else
  return Tier::kScalar;
#endif
}

// Read (not cached) so tests can flip the environment between engine
// constructions; engines snapshot the table once, so this is off the
// per-point path.
bool ForceScalarEnv() {
  const char* e = std::getenv("BQS_FORCE_SCALAR");
  if (e == nullptr || e[0] == '\0') return false;
  return !(e[0] == '0' && e[1] == '\0');
}

// ---------------------------------------------------------------------------
// Scalar tier: the same expressions the engine's own scalar loops use.
// ---------------------------------------------------------------------------

void PrepareRotatedScalar(const double* points, std::size_t n,
                          double origin_x, double origin_y, double rot_cos,
                          double rot_sin, double* rx, double* ry,
                          double* nsq) {
  if (rot_sin == 0.0 && rot_cos == 1.0) {
    // Exact-identity shortcut, mirrored in simd_lanes.h and
    // SegmentEngine::ToRotatedFrame (see the note there on signed zeros).
    for (std::size_t i = 0; i < n; ++i) {
      const double* p = points + i * kPointStrideDoubles;
      const double relx = p[0] - origin_x;
      const double rely = p[1] - origin_y;
      nsq[i] = relx * relx + rely * rely;
      rx[i] = relx;
      ry[i] = rely;
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = points + i * kPointStrideDoubles;
    const double relx = p[0] - origin_x;
    const double rely = p[1] - origin_y;
    nsq[i] = relx * relx + rely * rely;
    rx[i] = rot_cos * relx + rot_sin * rely;
    ry[i] = -rot_sin * relx + rot_cos * rely;
  }
}

// The scalar tier never mass-screens: every lane goes through the
// per-point path, which is the identity the vector tiers are checked
// against.
void ScreenLanesScalar(const ScreenState& /*state*/, const double* /*rx*/,
                       const double* /*ry*/, const double* /*nsq*/,
                       std::size_t n, unsigned char* verdicts) {
  for (std::size_t i = 0; i < n; ++i) verdicts[i] = 0;
}

void PrepareTrivialScalar(const double* /*points*/, std::size_t n,
                          double /*origin_x*/, double /*origin_y*/,
                          double /*eps_sq*/, unsigned char* verdicts) {
  for (std::size_t i = 0; i < n; ++i) verdicts[i] = 0;
}

double MaxAbsCrossScalar(const double* x, const double* y, std::size_t n,
                         double dx, double dy) {
  double vmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    vmax = std::max(vmax, std::fabs(dx * y[i] - dy * x[i]));
  }
  return vmax;
}

const KernelTable kScalarKernels = {PrepareRotatedScalar, ScreenLanesScalar,
                                    PrepareTrivialScalar, MaxAbsCrossScalar,
                                    Tier::kScalar, 1};

Tier CapTier(Tier tier, Tier cap) {
  return static_cast<int>(tier) < static_cast<int>(cap) ? tier : cap;
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier DetectedTier() {
  static const Tier tier = DetectOnce();
  return tier;
}

Tier ActiveTier() {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return CapTier(static_cast<Tier>(forced), DetectedTier());
  }
  if (ForceScalarEnv()) return Tier::kScalar;
  return DetectedTier();
}

void ForceTier(Tier tier) {
  g_forced_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void ClearForcedTier() {
  g_forced_tier.store(-1, std::memory_order_relaxed);
}

const KernelTable& KernelsFor(Tier tier) {
#if defined(__x86_64__) || defined(_M_X64)
  const Tier capped = CapTier(tier, DetectedTier());
  if (capped == Tier::kAvx2) return internal::kAvx2Kernels;
  if (capped == Tier::kSse2) return internal::kSse2Kernels;
#else
  (void)tier;
#endif
  return kScalarKernels;
}

}  // namespace bqs::simd
