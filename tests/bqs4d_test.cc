// 4-D BQS: bound sandwich property per orthant and the end-to-end error
// bound for <x, y, z, scaled t> streams.
#include "core/bqs4d_compressor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace {

std::vector<TrackPoint4> Walk4(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<TrackPoint4> out;
  out.reserve(n);
  Vec4 pos{};
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        pos = pos + Vec4{rng.Normal(0, 5), rng.Normal(0, 5),
                         rng.Normal(0, 2), rng.Normal(0, 1)};
        break;
      case 1:
        break;  // stationary (time axis still advances below)
      case 2:
        pos = pos + Vec4{8, 3, 1, 0.5};
        break;
      default:
        pos = pos + Vec4{rng.Uniform(-40, 40), rng.Uniform(-40, 40),
                         rng.Uniform(-15, 15), rng.Uniform(-5, 5)};
        break;
    }
    pos.w += 0.2;  // the scaled-time axis is monotone
    out.push_back(TrackPoint4{pos, static_cast<double>(i)});
  }
  return out;
}

TEST(Vec4Test, DistanceBasics) {
  EXPECT_DOUBLE_EQ((Vec4{1, 2, 3, 4}).Dot(Vec4{4, 3, 2, 1}), 20.0);
  EXPECT_DOUBLE_EQ(Distance(Vec4{}, Vec4{2, 2, 2, 2}), 4.0);
  // Line along x: deviation is the norm of the (y,z,w) components.
  EXPECT_DOUBLE_EQ(
      PointToLineDistance4({5, 3, 0, 4}, Vec4{}, {10, 0, 0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(PointToLineDistance4({1, 2, 2, 0}, Vec4{}, Vec4{}), 3.0);
  // Segment clamps.
  EXPECT_DOUBLE_EQ(
      PointToSegmentDistance4({13, 0, 0, 4}, Vec4{}, {10, 0, 0, 0}), 5.0);
}

TEST(OrthantBound4Test, CornersCoverPoints) {
  Rng rng(5);
  OrthantBound4 ob;
  std::vector<Vec4> points;
  for (int i = 0; i < 50; ++i) {
    const Vec4 p{rng.Uniform(0.1, 80), rng.Uniform(0.1, 80),
                 rng.Uniform(0.1, 80), rng.Uniform(0.1, 80)};
    ob.Add(p);
    points.push_back(p);
  }
  const auto corners = ob.Corners();
  for (const Vec4& p : points) {
    for (int axis = 0; axis < 4; ++axis) {
      EXPECT_LE(corners[0][axis], p[axis] + 1e-12);
      EXPECT_GE(corners[15][axis], p[axis] - 1e-12);
    }
  }
  // Extreme points are actual members.
  for (const Vec4& e : ob.extreme_points()) {
    bool found = false;
    for (const Vec4& p : points) {
      if (p == e) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(Bqs4dBoundsTest, SandwichProperty) {
  // Aggregate bounds vs exact deviation, through the compressor's own
  // decision path: since bounds are internal, verify indirectly — the
  // compressor's output must be error-bounded and the exact engine must
  // match an exhaustive greedy reference in spot checks.
  Rng rng(9);
  for (int iter = 0; iter < 300; ++iter) {
    OrthantBound4 ob;
    std::vector<Vec4> points;
    const int n = static_cast<int>(rng.UniformInt(1, 30));
    for (int i = 0; i < n; ++i) {
      const Vec4 p{rng.Uniform(0.2, 100), rng.Uniform(0.2, 100),
                   rng.Uniform(0.2, 100), rng.Uniform(0.2, 100)};
      ob.Add(p);
      points.push_back(p);
    }
    const Vec4 end{rng.Uniform(-150, 150), rng.Uniform(-150, 150),
                   rng.Uniform(-150, 150), rng.Uniform(-150, 150)};
    double exact = 0.0;
    for (const Vec4& p : points) {
      exact = std::max(exact, PointToLineDistance4(p, Vec4{}, end));
    }
    double upper = 0.0;
    for (const Vec4& c : ob.Corners()) {
      upper = std::max(upper, PointToLineDistance4(c, Vec4{}, end));
    }
    double lower = 0.0;
    for (const Vec4& p : ob.extreme_points()) {
      lower = std::max(lower, PointToLineDistance4(p, Vec4{}, end));
    }
    const double tol = 1e-7 * (1.0 + exact);
    EXPECT_GE(upper, exact - tol);
    EXPECT_LE(lower, exact + tol);
  }
}

class Bqs4dErrorBoundTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(Bqs4dErrorBoundTest, CompressionIsErrorBounded) {
  const auto [seed, exact_mode] = GetParam();
  const auto walk = Walk4(seed, 1500);
  BqsOptions options;
  options.epsilon = 8.0;
  Bqs4dCompressor compressor(options, exact_mode);
  const CompressedTrajectory4 compressed =
      CompressAll(compressor, walk);
  const DeviationReport report =
      EvaluateCompression(walk, compressed, options.metric);
  EXPECT_LE(report.max_deviation, options.epsilon * (1.0 + 1e-9))
      << "seed=" << seed << " exact=" << exact_mode;
  EXPECT_GE(compressed.size(), 2u);
  EXPECT_LT(compressed.size(), walk.size());
}

INSTANTIATE_TEST_SUITE_P(SeedsAndModes, Bqs4dErrorBoundTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Bool()));

TEST(Bqs4dCompressorTest, ExactNeverWorseThanFast) {
  const auto walk = Walk4(11, 2000);
  BqsOptions options;
  options.epsilon = 10.0;
  Bqs4dCompressor exact(options, true);
  Bqs4dCompressor fast(options, false);
  EXPECT_LE(CompressAll(exact, walk).size(),
            CompressAll(fast, walk).size());
}

TEST(Bqs4dCompressorTest, StationaryStreamCompressesToTwo) {
  std::vector<TrackPoint4> walk(
      150, TrackPoint4{Vec4{1, 2, 3, 0}, 0.0});
  for (std::size_t i = 0; i < walk.size(); ++i) {
    walk[i].t = static_cast<double>(i);
  }
  Bqs4dCompressor compressor(BqsOptions{}, false);
  EXPECT_EQ(CompressAll(compressor, walk).size(), 2u);
}

TEST(Bqs4dCompressorTest, DegeneratesToLowerDimensions) {
  // A walk confined to the z = w = 0 plane must behave like a 2-D stream.
  Rng rng(13);
  std::vector<TrackPoint4> walk;
  Vec4 pos{};
  for (int i = 0; i < 800; ++i) {
    pos = pos + Vec4{rng.Normal(0, 6), rng.Normal(0, 6), 0, 0};
    walk.push_back(TrackPoint4{pos, static_cast<double>(i)});
  }
  BqsOptions options;
  options.epsilon = 10.0;
  Bqs4dCompressor compressor(options, true);
  const auto compressed = CompressAll(compressor, walk);
  const DeviationReport report =
      EvaluateCompression(walk, compressed, options.metric);
  EXPECT_LE(report.max_deviation, options.epsilon * (1.0 + 1e-9));
  EXPECT_LT(compressed.size(), walk.size() / 3);
}

// Output identity across refactors: key indices and every decision counter
// of both engines under both metrics, recorded from the standalone 4-D
// compressor before the 3-D and 4-D control loops merged.
TEST(Bqs4dCompressorTest, OutputIsPinned) {
  const auto walk = Walk4(1, 1500);
  struct Case {
    bool exact;
    DistanceMetric metric;
    const char* pin;
  };
  const Case cases[] = {
      {false, DistanceMetric::kPointToLine,
       "keys=523 digest=10421982486142416427 "
       "stats=1500,131,0,1368,446,0,0,0,75,521,0,0,0,"},
      {true, DistanceMetric::kPointToLine,
       "keys=490 digest=5120052315977564905 "
       "stats=1500,64,0,1292,486,145,143,2,0,488,0,0,0,"},
      {false, DistanceMetric::kPointToSegment,
       "keys=562 digest=15597218261296940995 "
       "stats=1500,113,0,1386,487,0,0,0,73,560,0,0,0,"},
      {true, DistanceMetric::kPointToSegment,
       "keys=535 digest=13860399128186145264 "
       "stats=1500,54,0,1331,531,116,114,2,0,533,0,0,0,"},
  };
  for (const Case& c : cases) {
    Bqs4dCompressor compressor(
        BqsOptions{.epsilon = 8.0, .metric = c.metric}, c.exact);
    const CompressedTrajectory4 out = CompressAll(compressor, walk);
    EXPECT_EQ(testing_util::OutputPin(out.keys, compressor.stats()), c.pin)
        << compressor.name() << " metric " << static_cast<int>(c.metric);
  }
}

}  // namespace
}  // namespace bqs
