// Small numeric helpers shared across modules. Header-only.
#ifndef BQS_COMMON_MATH_UTILS_H_
#define BQS_COMMON_MATH_UTILS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace bqs {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;
inline constexpr double kHalfPi = 0.5 * kPi;

/// splitmix64 finalizer: the repo's one integer mixer. Device ids are
/// often sequential, so shard routing, slot probing, token-grant rounding,
/// fault schedules and RNG forks all need a real mixer, not `x % n`.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Degrees to radians.
constexpr double DegToRad(double deg) { return deg * kPi / 180.0; }

/// Radians to degrees.
constexpr double RadToDeg(double rad) { return rad * 180.0 / kPi; }

/// True when |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
inline bool ApproxEqual(double a, double b, double abs_tol = 1e-9,
                        double rel_tol = 1e-9) {
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

/// x clamped to [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::min(std::max(x, lo), hi);
}

/// Square of x; clearer than std::pow(x, 2) in distance formulas.
constexpr double Sq(double x) { return x * x; }

/// Linear interpolation a + t * (b - a); t outside [0,1] extrapolates.
constexpr double Lerp(double a, double b, double t) { return a + t * (b - a); }

/// Sign of x as -1.0, 0.0 or +1.0.
inline double Sign(double x) {
  if (x > 0.0) return 1.0;
  if (x < 0.0) return -1.0;
  return 0.0;
}

}  // namespace bqs

#endif  // BQS_COMMON_MATH_UTILS_H_
