// 3-D BQS: bound sandwich property per octant, end-to-end error bound of
// the compressor in both exact and fast mode, and the clipped-hull vs
// paper-significant-point comparison.
#include "core/bqs3d_compressor.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/bounds3d.h"
#include "geometry/line3.h"

namespace bqs {
namespace {

Vec3 RandomPointInOctant(Rng& rng, int octant, double lo, double hi) {
  Vec3 p{rng.Uniform(lo, hi), rng.Uniform(lo, hi), rng.Uniform(lo, hi)};
  if (octant & 1) p.x = -p.x;
  if (octant & 2) p.y = -p.y;
  if (octant & 4) p.z = -p.z;
  return p;
}

double ExactMax3(const std::vector<Vec3>& points, Vec3 end,
                 DistanceMetric metric) {
  double best = 0.0;
  for (const Vec3& p : points) {
    const double d = metric == DistanceMetric::kPointToLine
                         ? PointToLineDistance3(p, Vec3{}, end)
                         : PointToSegmentDistance3(p, Vec3{}, end);
    best = std::max(best, d);
  }
  return best;
}

// 3-D random walk with stops and spikes.
std::vector<TrackPoint3> Walk3(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<TrackPoint3> out;
  out.reserve(n);
  Vec3 pos{};
  for (std::size_t i = 0; i < n; ++i) {
    const int mode = static_cast<int>(rng.UniformInt(0, 3));
    switch (mode) {
      case 0:
        pos = pos + Vec3{rng.Normal(0.0, 5.0), rng.Normal(0.0, 5.0),
                         rng.Normal(0.0, 2.0)};
        break;
      case 1:
        break;  // stationary
      case 2:
        pos = pos + Vec3{8.0, 3.0, 1.0};
        break;
      default:
        pos = pos + Vec3{rng.Uniform(-50.0, 50.0), rng.Uniform(-50.0, 50.0),
                         rng.Uniform(-20.0, 20.0)};
        break;
    }
    out.push_back(TrackPoint3{pos, static_cast<double>(i)});
  }
  return out;
}

class Bounds3dPropertyTest
    : public ::testing::TestWithParam<std::tuple<Bounds3dMode, int>> {};

TEST_P(Bounds3dPropertyTest, SandwichesExactDeviation) {
  const auto [mode, octant] = GetParam();
  Rng rng(100u + static_cast<uint64_t>(octant));
  const bool safe_mode = mode == Bounds3dMode::kClippedHull;

  int upper_violations = 0;
  for (int iter = 0; iter < 600; ++iter) {
    OctantBound ob(octant);
    std::vector<Vec3> points;
    const int n = static_cast<int>(rng.UniformInt(1, 25));
    for (int i = 0; i < n; ++i) {
      const Vec3 p = RandomPointInOctant(rng, octant, 0.2, 120.0);
      ob.Add(p);
      points.push_back(p);
    }
    Vec3 end = iter % 2 == 0
                   ? RandomPointInOctant(rng, octant, 1.0, 200.0)
                   : Vec3{rng.Uniform(-200.0, 200.0),
                          rng.Uniform(-200.0, 200.0),
                          rng.Uniform(-200.0, 200.0)};
    if (end == Vec3{}) end = Vec3{1.0, 1.0, 1.0};

    const double exact =
        ExactMax3(points, end, DistanceMetric::kPointToLine);
    const DeviationBounds bounds =
        OctantDeviationBounds(ob, end, DistanceMetric::kPointToLine, mode);
    const double tol = 1e-6 * (1.0 + exact);
    EXPECT_LE(bounds.lower, exact + tol) << "octant " << octant;
    if (bounds.upper < exact - tol) ++upper_violations;
  }
  if (safe_mode) {
    EXPECT_EQ(upper_violations, 0)
        << "clipped-hull upper bound must never under-estimate";
  }
  // The paper's 17-point scheme is reported, not asserted: its polyhedron
  // can shave corners in rare configurations (see DESIGN.md).
  if (!safe_mode && upper_violations > 0) {
    GTEST_LOG_(INFO) << "paper-significant mode under-estimated "
                     << upper_violations << "/600 times in octant "
                     << octant;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndOctants, Bounds3dPropertyTest,
    ::testing::Combine(::testing::Values(Bounds3dMode::kClippedHull,
                                         Bounds3dMode::kPaperSignificant),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7)),
    [](const auto& naming_info) {
      const Bounds3dMode mode = std::get<0>(naming_info.param);
      const int octant = std::get<1>(naming_info.param);
      return std::string(mode == Bounds3dMode::kClippedHull ? "Hull"
                                                            : "Paper") +
             "O" + std::to_string(octant);
    });

class Bqs3dErrorBoundTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(Bqs3dErrorBoundTest, CompressionIsErrorBounded) {
  const auto [seed, exact_mode] = GetParam();
  const auto walk = Walk3(seed, 2000);
  Bqs3dOptions options;
  options.epsilon = 6.0;
  options.mode = Bounds3dMode::kClippedHull;
  Bqs3dCompressor compressor(options, exact_mode);
  const CompressedTrajectory3 compressed =
      Compress3dAll(compressor, walk);
  const DeviationReport report =
      Evaluate3dCompression(walk, compressed, options.metric);
  EXPECT_LE(report.max_deviation, options.epsilon * (1.0 + 1e-9))
      << "seed=" << seed << " exact=" << exact_mode;
  EXPECT_GE(compressed.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, Bqs3dErrorBoundTest,
    ::testing::Combine(::testing::Values(7u, 8u, 9u),
                       ::testing::Bool()));

TEST(Bqs3dCompressorTest, ExactModeNeverTakesMorePointsThanFast) {
  const auto walk = Walk3(17, 3000);
  Bqs3dOptions options;
  options.epsilon = 8.0;
  Bqs3dCompressor exact(options, /*exact_mode=*/true);
  Bqs3dCompressor fast(options, /*exact_mode=*/false);
  const auto via_exact = Compress3dAll(exact, walk);
  const auto via_fast = Compress3dAll(fast, walk);
  EXPECT_LE(via_exact.size(), via_fast.size());
}

TEST(Bqs3dCompressorTest, FlatWalkMatchesPlanarIntuition) {
  // A z = 0 walk must compress without ever exceeding the 2-D deviation.
  auto walk = Walk3(23, 1500);
  for (auto& p : walk) p.pos.z = 0.0;
  Bqs3dOptions options;
  options.epsilon = 5.0;
  Bqs3dCompressor compressor(options, /*exact_mode=*/false);
  const auto compressed = Compress3dAll(compressor, walk);
  const DeviationReport report =
      Evaluate3dCompression(walk, compressed, options.metric);
  EXPECT_LE(report.max_deviation, options.epsilon * (1.0 + 1e-9));
}

TEST(Bqs3dCompressorTest, StationaryStreamCompressesToTwo) {
  std::vector<TrackPoint3> walk(200, TrackPoint3{{1.0, 2.0, 3.0}, 0.0});
  for (std::size_t i = 0; i < walk.size(); ++i) {
    walk[i].t = static_cast<double>(i);
  }
  Bqs3dCompressor compressor(Bqs3dOptions{}, false);
  const auto compressed = Compress3dAll(compressor, walk);
  EXPECT_EQ(compressed.size(), 2u);
}

TEST(Bqs3dCompressorTest, StatsCoverEveryPoint) {
  const auto walk = Walk3(29, 2000);
  Bqs3dCompressor compressor(Bqs3dOptions{}, false);
  Compress3dAll(compressor, walk);
  EXPECT_EQ(compressor.stats().points, walk.size());
}

TEST(Bqs3dCompressorTest, OptionsValidate) {
  Bqs3dOptions options;
  EXPECT_TRUE(options.Validate().ok());
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    options.epsilon = bad;
    EXPECT_FALSE(options.Validate().ok()) << "epsilon " << bad;
  }
}

TEST(Bqs3dCompressorTest, LineToRectDistanceAgreesWithSampling) {
  Rng rng(31);
  for (int iter = 0; iter < 200; ++iter) {
    const Vec3 a{rng.Uniform(-50, 50), rng.Uniform(-50, 50),
                 rng.Uniform(-50, 50)};
    const Vec3 b{rng.Uniform(-50, 50), rng.Uniform(-50, 50),
                 rng.Uniform(-50, 50)};
    const Vec3 origin{rng.Uniform(-20, 20), rng.Uniform(-20, 20),
                      rng.Uniform(-20, 20)};
    const Vec3 e0{rng.Uniform(1, 30), 0.0, 0.0};
    const Vec3 e1{0.0, rng.Uniform(1, 30), 0.0};
    const std::array<Vec3, 4> rect{origin, origin + e0, origin + e0 + e1,
                                   origin + e1};
    const double computed = LineToRectDistance(a, b, rect);
    // Dense sampling of the rectangle gives an upper bound on the true
    // distance; the computed value must not exceed any sample distance.
    double sampled = 1e100;
    for (int i = 0; i <= 20; ++i) {
      for (int j = 0; j <= 20; ++j) {
        const Vec3 p = origin + e0 * (i / 20.0) + e1 * (j / 20.0);
        sampled = std::min(sampled, PointToLineDistance3(p, a, b));
      }
    }
    EXPECT_LE(computed, sampled + 1e-6);
    EXPECT_GE(computed, -1e-12);
  }
}

}  // namespace
}  // namespace bqs
