// Shared helpers for the test suite: deterministic stream generators that
// exercise compressors with realistic and adversarial shapes.
#ifndef BQS_TESTS_TEST_UTIL_H_
#define BQS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include <cmath>

#include "common/math_utils.h"
#include "core/decision_stats.h"
#include "common/rng.h"
#include "simulation/random_walk.h"
#include "simulation/von_mises.h"
#include "trajectory/trajectory.h"

namespace bqs {
namespace testing_util {

/// Smooth-ish correlated random walk (the paper's synthetic model, small).
inline Trajectory SmoothWalk(uint64_t seed, std::size_t n) {
  RandomWalkOptions options;
  options.num_points = n;
  options.seed = seed;
  options.area_m = 4000.0;
  return GenerateRandomWalk(options);
}

/// Adversarially jagged stream: mixes stationary clusters, spikes, exact
/// duplicates, and backtracking through the segment start — the shapes that
/// stress the bound logic and the trivial-include end-validity handling.
inline Trajectory JaggedWalk(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Trajectory out;
  out.reserve(n);
  Vec2 pos{0.0, 0.0};
  double t = 0.0;
  while (out.size() < n) {
    const int mode = static_cast<int>(rng.UniformInt(0, 4));
    const int burst = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < burst && out.size() < n; ++i) {
      switch (mode) {
        case 0:  // drift
          pos += Vec2{rng.Normal(0.0, 6.0), rng.Normal(0.0, 6.0)};
          break;
        case 1:  // stationary / duplicates
          if (rng.Bernoulli(0.5)) {
            pos += Vec2{rng.Normal(0.0, 0.5), rng.Normal(0.0, 0.5)};
          }
          break;
        case 2:  // spike out and back
          pos += Vec2{rng.Uniform(-80.0, 80.0), rng.Uniform(-80.0, 80.0)};
          break;
        case 3:  // straight run
          pos += Vec2{12.0, 5.0};
          break;
        default:  // jump back near origin (backtrack through starts)
          pos = Vec2{rng.Normal(0.0, 2.0), rng.Normal(0.0, 2.0)};
          break;
      }
      t += 1.0;
      out.push_back(TrackPoint{pos, t, {0.0, 0.0}});
    }
  }
  return out;
}

/// Heading-persistent walk driven directly by von Mises turning angles (the
/// paper's turning model without the wait/move event machinery). Small
/// kappa = meandering, self-intersecting paths; large kappa = near-straight.
inline Trajectory VonMisesWalk(uint64_t seed, std::size_t n,
                               double kappa = 4.0, double step_m = 8.0) {
  Rng rng(seed);
  Trajectory out;
  out.reserve(n);
  Vec2 pos{0.0, 0.0};
  double heading = rng.Uniform(-kPi, kPi);
  for (std::size_t i = 0; i < n; ++i) {
    heading += SampleVonMises(rng, 0.0, kappa);
    const Vec2 vel{step_m * std::cos(heading), step_m * std::sin(heading)};
    pos += vel;
    out.push_back(TrackPoint{pos, static_cast<double>(i), vel});
  }
  return out;
}

/// Straight line with sub-tolerance lateral noise; the optimal compression
/// is the two endpoints.
inline Trajectory NoisyLine(uint64_t seed, std::size_t n, double noise) {
  Rng rng(seed);
  Trajectory out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) * 10.0;
    out.push_back(TrackPoint{{x, rng.Uniform(-noise, noise)},
                             static_cast<double>(i), {10.0, 0.0}});
  }
  return out;
}

/// One line pinning a compressor run exactly: the key count, an FNV-1a
/// digest of the key indices, and every DecisionStats counter in
/// declaration order. A single changed decision changes the line.
template <typename Key>
std::string OutputPin(const std::vector<Key>& keys,
                      const DecisionStats& s) {
  static_assert(sizeof(DecisionStats) == 13 * sizeof(uint64_t),
                "a new DecisionStats counter belongs in the pin");
  uint64_t digest = 14695981039346656037ull;
  for (const Key& k : keys) {
    digest ^= k.index;
    digest *= 1099511628211ull;
  }
  std::string line = "keys=" + std::to_string(keys.size()) +
                     " digest=" + std::to_string(digest);
  const uint64_t counters[] = {s.points,
                               s.trivial_includes,
                               s.warmup_checks,
                               s.upper_bound_includes,
                               s.lower_bound_splits,
                               s.exact_computations,
                               s.exact_includes,
                               s.exact_splits,
                               s.uncertain_splits,
                               s.segments,
                               s.exact_points_scanned,
                               s.peak_exact_state,
                               s.kernel_fallbacks};
  line += " stats=";
  for (const uint64_t c : counters) line += std::to_string(c) + ",";
  return line;
}

}  // namespace testing_util
}  // namespace bqs

#endif  // BQS_TESTS_TEST_UTIL_H_
