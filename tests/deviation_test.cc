// Exact deviation evaluation — the ground truth for every error-bound test.
#include "trajectory/deviation.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/bqs4d_compressor.h"
#include "core/point3.h"

namespace bqs {
namespace {

Trajectory MakePath(std::initializer_list<Vec2> points) {
  Trajectory t;
  double time = 0.0;
  for (const Vec2& p : points) {
    t.push_back(TrackPoint{p, time, {}});
    time += 1.0;
  }
  return t;
}

CompressedTrajectory KeysAt(const Trajectory& t,
                            std::initializer_list<std::size_t> indices) {
  CompressedTrajectory c;
  for (const std::size_t i : indices) c.keys.push_back(KeyPoint{t[i], i});
  return c;
}

TEST(DeviationTest, InteriorPointsOnly) {
  const Trajectory t = MakePath({{0, 0}, {5, 3}, {10, 0}});
  EXPECT_DOUBLE_EQ(EvaluateCompression(t, KeysAt(t, {0, 2}),
                                       DistanceMetric::kPointToLine)
                       .max_deviation,
                   3.0);
  // No interior points.
  EXPECT_DOUBLE_EQ(EvaluateCompression(t, KeysAt(t, {0, 1}),
                                       DistanceMetric::kPointToLine)
                       .max_deviation,
                   0.0);
}

TEST(DeviationTest, BufferDeviation) {
  const Trajectory t = MakePath({{1, 4}, {2, -7}, {3, 2}});
  EXPECT_DOUBLE_EQ(
      BufferDeviation(t, {0, 0}, {10, 0}, DistanceMetric::kPointToLine),
      7.0);
  EXPECT_DOUBLE_EQ(
      BufferDeviation({}, {0, 0}, {10, 0}, DistanceMetric::kPointToLine),
      0.0);
}

TEST(DeviationTest, EvaluateCompressionPerSegment) {
  const Trajectory t =
      MakePath({{0, 0}, {5, 2}, {10, 0}, {15, -6}, {20, 0}});
  CompressedTrajectory c;
  c.keys.push_back(KeyPoint{t[0], 0});
  c.keys.push_back(KeyPoint{t[2], 2});
  c.keys.push_back(KeyPoint{t[4], 4});
  const DeviationReport report =
      EvaluateCompression(t, c, DistanceMetric::kPointToLine);
  ASSERT_EQ(report.per_segment.size(), 2u);
  EXPECT_DOUBLE_EQ(report.per_segment[0], 2.0);
  EXPECT_DOUBLE_EQ(report.per_segment[1], 6.0);
  EXPECT_DOUBLE_EQ(report.max_deviation, 6.0);
  EXPECT_EQ(report.worst_segment, 1u);
  EXPECT_TRUE(report.BoundedBy(6.0));
  EXPECT_FALSE(report.BoundedBy(5.9));
}

TEST(DeviationTest, EvaluateEmptyAndSingle) {
  const Trajectory t = MakePath({{0, 0}, {1, 1}});
  CompressedTrajectory c;
  EXPECT_DOUBLE_EQ(
      EvaluateCompression(t, c, DistanceMetric::kPointToLine).max_deviation,
      0.0);
  c.keys.push_back(KeyPoint{t[0], 0});
  EXPECT_DOUBLE_EQ(
      EvaluateCompression(t, c, DistanceMetric::kPointToLine).max_deviation,
      0.0);
}

TEST(DeviationTest, SegmentMetricDiffersFromLineMetric) {
  // Point beyond the end deviates more under the segment metric.
  const Trajectory t = MakePath({{0, 0}, {15, 0}, {10, 0}});
  const CompressedTrajectory c = KeysAt(t, {0, 2});
  const double line =
      EvaluateCompression(t, c, DistanceMetric::kPointToLine).max_deviation;
  const double seg =
      EvaluateCompression(t, c, DistanceMetric::kPointToSegment)
          .max_deviation;
  EXPECT_DOUBLE_EQ(line, 0.0);
  EXPECT_DOUBLE_EQ(seg, 5.0);
}

// The verifier must never trust key indices: malformed key sequences are
// reported as unbounded, in every dimension, without reading outside the
// original stream.
template <typename P, typename C>
struct Dimension {
  using Point = P;
  using Compressed = C;
  using Key = typename decltype(C::keys)::value_type;
};
using Dimensions =
    ::testing::Types<Dimension<TrackPoint, CompressedTrajectory>,
                     Dimension<TrackPoint3, CompressedTrajectory3>,
                     Dimension<TrackPoint4, CompressedTrajectory4>>;

template <typename D>
class MalformedKeysTest : public ::testing::Test {
 protected:
  using Point = typename D::Point;

  // A fix at (x, y), zero in any further coordinate.
  static Point At(double x, double y) {
    Point p{};
    p.pos.x = x;
    p.pos.y = y;
    return p;
  }

  static typename D::Compressed Keys(std::initializer_list<uint64_t> indices) {
    typename D::Compressed c;
    for (const uint64_t i : indices) c.keys.push_back({At(0, 0), i});
    return c;
  }

  // (0,0) -> a fix 100 m off the path -> (20,0) -> (30,0).
  const std::vector<Point> path_{At(0, 0), At(10, 100), At(20, 0),
                                 At(30, 0)};
};
TYPED_TEST_SUITE(MalformedKeysTest, Dimensions);

TYPED_TEST(MalformedKeysTest, KeyPastTheEndIsUnbounded) {
  for (const uint64_t past : {4u, 9u}) {
    const DeviationReport report = EvaluateCompression(
        this->path_, this->Keys({0, 2, past}), DistanceMetric::kPointToLine);
    ASSERT_EQ(report.per_segment.size(), 2u);
    EXPECT_DOUBLE_EQ(report.per_segment[0], 100.0);
    EXPECT_TRUE(std::isinf(report.per_segment[1]));
    EXPECT_EQ(report.worst_segment, 1u);
    EXPECT_FALSE(report.BoundedBy(10.0));
  }
}

TYPED_TEST(MalformedKeysTest, NonIncreasingKeysAreUnbounded) {
  // Decreasing keys skip the off-path fix entirely.
  const DeviationReport decreasing = EvaluateCompression(
      this->path_, this->Keys({3, 0}), DistanceMetric::kPointToLine);
  ASSERT_EQ(decreasing.per_segment.size(), 1u);
  EXPECT_TRUE(std::isinf(decreasing.max_deviation));
  EXPECT_FALSE(decreasing.BoundedBy(10.0));
  // A repeated key is not a segment either.
  const DeviationReport repeated = EvaluateCompression(
      this->path_, this->Keys({0, 0, 3}), DistanceMetric::kPointToSegment);
  ASSERT_EQ(repeated.per_segment.size(), 2u);
  EXPECT_TRUE(std::isinf(repeated.per_segment[0]));
  EXPECT_FALSE(repeated.BoundedBy(1000.0));
}

TYPED_TEST(MalformedKeysTest, EmptyOriginalIsUnbounded) {
  const std::vector<typename TypeParam::Point> empty;
  const DeviationReport report = EvaluateCompression(
      empty, this->Keys({0, 1}), DistanceMetric::kPointToLine);
  ASSERT_EQ(report.per_segment.size(), 1u);
  EXPECT_TRUE(std::isinf(report.max_deviation));
  EXPECT_FALSE(report.BoundedBy(10.0));
}

}  // namespace
}  // namespace bqs
