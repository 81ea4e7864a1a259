// Focused tests for the 3-D bound machinery (beyond the end-to-end checks
// in bqs3d_test): LineToRectDistance exactness incl. the parallel case,
// and mode-comparison properties of OctantDeviationBounds.
#include "core/bounds3d.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/line3.h"

namespace bqs {
namespace {

TEST(LineToRectDistanceTest, PierceIsZero) {
  const std::array<Vec3, 4> rect{Vec3{-5, -5, 0}, Vec3{5, -5, 0},
                                 Vec3{5, 5, 0}, Vec3{-5, 5, 0}};
  // Vertical line through the interior.
  EXPECT_DOUBLE_EQ(
      LineToRectDistance({1, 1, -10}, {1, 1, 10}, rect), 0.0);
  // Oblique transversal.
  EXPECT_DOUBLE_EQ(
      LineToRectDistance({-10, -10, -10}, {10, 10, 10}, rect), 0.0);
}

TEST(LineToRectDistanceTest, ParallelOverInterior) {
  const std::array<Vec3, 4> rect{Vec3{-5, -5, 0}, Vec3{5, -5, 0},
                                 Vec3{5, 5, 0}, Vec3{-5, 5, 0}};
  // Line parallel to the plane, projecting across the rectangle: the
  // distance is the plane offset, attained over the interior.
  EXPECT_NEAR(LineToRectDistance({-10, 0, 3}, {10, 0, 3}, rect), 3.0,
              1e-12);
  // Parallel but projecting outside the rectangle: nearest edge governs.
  EXPECT_NEAR(LineToRectDistance({-10, 9, 3}, {10, 9, 3}, rect), 5.0,
              1e-12);
}

TEST(LineToRectDistanceTest, TransversalMissingRect) {
  const std::array<Vec3, 4> rect{Vec3{0, 0, 0}, Vec3{4, 0, 0},
                                 Vec3{4, 4, 0}, Vec3{0, 4, 0}};
  // Vertical line far outside: distance to the nearest corner.
  EXPECT_NEAR(LineToRectDistance({10, 0, -5}, {10, 0, 5}, rect), 6.0,
              1e-12);
}

TEST(LineToRectDistanceTest, DegenerateRectFallsBackToEdges) {
  // A zero-area "rectangle" (all corners collinear).
  const std::array<Vec3, 4> rect{Vec3{0, 0, 0}, Vec3{4, 0, 0},
                                 Vec3{4, 0, 0}, Vec3{0, 0, 0}};
  EXPECT_NEAR(LineToRectDistance({0, 3, 0}, {4, 3, 0}, rect), 3.0, 1e-12);
}

TEST(LineToRectDistanceTest, MatchesDenseSampling) {
  Rng rng(77);
  for (int iter = 0; iter < 300; ++iter) {
    const Vec3 origin{rng.Uniform(-20, 20), rng.Uniform(-20, 20),
                      rng.Uniform(-20, 20)};
    const Vec3 e0{rng.Uniform(1, 25), 0, 0};
    const Vec3 e1{0, rng.Uniform(1, 25), 0};
    const std::array<Vec3, 4> rect{origin, origin + e0, origin + e0 + e1,
                                   origin + e1};
    const Vec3 a{rng.Uniform(-40, 40), rng.Uniform(-40, 40),
                 rng.Uniform(-40, 40)};
    // Mix of generic and parallel-to-plane lines.
    const Vec3 b = iter % 3 == 0
                       ? a + Vec3{rng.Uniform(-30, 30),
                                  rng.Uniform(-30, 30), 0.0}
                       : Vec3{rng.Uniform(-40, 40), rng.Uniform(-40, 40),
                              rng.Uniform(-40, 40)};
    if (Distance(a, b) < 1e-6) continue;
    const double computed = LineToRectDistance(a, b, rect);
    double sampled = 1e100;
    for (int i = 0; i <= 40; ++i) {
      for (int j = 0; j <= 40; ++j) {
        const Vec3 p = origin + e0 * (i / 40.0) + e1 * (j / 40.0);
        sampled = std::min(sampled, PointToLineDistance3(p, a, b));
      }
    }
    EXPECT_LE(computed, sampled + 1e-6);
    EXPECT_GE(computed, sampled - 1.5);  // grid resolution slack
  }
}

TEST(OctantBoundsTest, ClippedHullNeverLooserThanPaper17OnUpper) {
  // The paper-17 point set spans a polyhedron containing the clipped hull,
  // so its upper bound must dominate (both are sound; clipped is tighter).
  Rng rng(78);
  int compared = 0;
  for (int iter = 0; iter < 400; ++iter) {
    OctantBound ob(static_cast<int>(rng.UniformInt(0, 7)));
    const int n = static_cast<int>(rng.UniformInt(2, 20));
    for (int i = 0; i < n; ++i) {
      Vec3 p{rng.Uniform(0.2, 80), rng.Uniform(0.2, 80),
             rng.Uniform(0.2, 80)};
      if (ob.octant() & 1) p.x = -p.x;
      if (ob.octant() & 2) p.y = -p.y;
      if (ob.octant() & 4) p.z = -p.z;
      ob.Add(p);
    }
    const Vec3 end{rng.Uniform(-120, 120), rng.Uniform(-120, 120),
                   rng.Uniform(-120, 120)};
    if (end == Vec3{}) continue;
    const DeviationBounds hull = OctantDeviationBounds(
        ob, end, DistanceMetric::kPointToLine, ob.HullVertices());
    const DeviationBounds paper = OctantDeviationBounds(
        ob, end, DistanceMetric::kPointToLine, ob.PaperSignificantPoints());
    ++compared;
    EXPECT_LE(hull.upper, paper.upper + 1e-6 * (1.0 + paper.upper));
  }
  EXPECT_GT(compared, 300);
}

TEST(OctantBoundsTest, SegmentMetricBoundsSandwich) {
  Rng rng(79);
  for (int iter = 0; iter < 400; ++iter) {
    OctantBound ob(0);
    std::vector<Vec3> points;
    const int n = static_cast<int>(rng.UniformInt(1, 20));
    for (int i = 0; i < n; ++i) {
      const Vec3 p{rng.Uniform(0.2, 90), rng.Uniform(0.2, 90),
                   rng.Uniform(0.2, 90)};
      ob.Add(p);
      points.push_back(p);
    }
    const Vec3 end{rng.Uniform(-120, 120), rng.Uniform(-120, 120),
                   rng.Uniform(-120, 120)};
    double exact = 0.0;
    for (const Vec3& p : points) {
      exact = std::max(exact, PointToSegmentDistance3(p, Vec3{}, end));
    }
    const DeviationBounds bounds = OctantDeviationBounds(
        ob, end, DistanceMetric::kPointToSegment, ob.HullVertices());
    const double tol = 1e-6 * (1.0 + exact);
    EXPECT_LE(bounds.lower, exact + tol);
    EXPECT_GE(bounds.upper, exact - tol);
  }
}

}  // namespace
}  // namespace bqs
