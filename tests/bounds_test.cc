// Property tests for the deviation-bound theorems (5.2-5.5 + Eq. 11): the
// computed <d_lb, d_ub> must sandwich the exact maximum deviation for any
// point set summarized by a QuadrantBound and any end point. These bounds
// are the entire soundness story of FBQS, so the sampling here is heavy.
#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "common/rng.h"
#include "core/quadrant_bound.h"
#include "geometry/angle.h"
#include "geometry/line2.h"

namespace bqs {
namespace {

struct Config {
  int quadrant;
  std::vector<Vec2> points;
  Vec2 end;
};

Vec2 RandomPointInQuadrant(Rng& rng, int quadrant, double lo, double hi) {
  const QuadrantRange range = QuadrantAngles(quadrant);
  const double theta = rng.Uniform(range.start, range.end * 0.999999);
  const double r = rng.Uniform(lo, hi);
  return Vec2{r * std::cos(theta), r * std::sin(theta)};
}

double ExactMax(const std::vector<Vec2>& points, Vec2 end,
                DistanceMetric metric) {
  double best = 0.0;
  for (const Vec2& p : points) {
    best = std::max(best, PointDeviation(p, {0.0, 0.0}, end, metric));
  }
  return best;
}

class BoundsPropertyTest
    : public ::testing::TestWithParam<std::tuple<DistanceMetric, int>> {};

TEST_P(BoundsPropertyTest, SandwichesExactDeviation) {
  const auto [metric, quadrant] = GetParam();
  Rng rng(1234u + static_cast<uint64_t>(quadrant) * 7u +
          (metric == DistanceMetric::kPointToLine ? 0u : 1000u));

  int in_quadrant_cases = 0;
  int out_quadrant_cases = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    QuadrantBound qb(quadrant);
    std::vector<Vec2> points;
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      const Vec2 p = RandomPointInQuadrant(rng, quadrant, 0.5, 500.0);
      points.push_back(p);
      qb.Add(p);
    }
    // End points everywhere: same quadrant, any direction, short, long.
    Vec2 end;
    switch (iter % 4) {
      case 0:
        end = RandomPointInQuadrant(rng, quadrant, 1.0, 800.0);
        break;
      case 1:
        end = Vec2{rng.Uniform(-800.0, 800.0), rng.Uniform(-800.0, 800.0)};
        break;
      case 2:
        end = RandomPointInQuadrant(rng, (quadrant + 2) % 4, 1.0, 800.0);
        break;
      default:
        end = Vec2{rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)};
        break;
    }
    if (end == Vec2{0.0, 0.0}) end = Vec2{1.0, 1.0};
    if (LineInQuadrant(end.Angle(), quadrant)) {
      ++in_quadrant_cases;
    } else {
      ++out_quadrant_cases;
    }

    const double exact = ExactMax(points, end, metric);
    const DeviationBounds bounds = QuadrantDeviationBounds(qb, end, metric);

    const double tol = 1e-7 * (1.0 + exact);
    EXPECT_LE(bounds.lower, exact + tol)
        << "lower bound too high (quadrant " << quadrant << ", iter " << iter
        << ")";
    EXPECT_GE(bounds.upper, exact - tol)
        << "upper bound too low (quadrant " << quadrant << ", iter " << iter
        << ")";
    EXPECT_LE(bounds.lower, bounds.upper + tol);

    // Theorem 5.2 box bounds must sandwich as well (and be no tighter on
    // the upper side than the significant-point bound is sound).
    const DeviationBounds box = BoxDeviationBounds(qb, end, metric);
    EXPECT_LE(box.lower, exact + tol);
    EXPECT_GE(box.upper, exact - tol);
  }
  // The sweep must exercise both theorem branches.
  EXPECT_GT(in_quadrant_cases, 100);
  EXPECT_GT(out_quadrant_cases, 100);
}

INSTANTIATE_TEST_SUITE_P(
    AllQuadrantsBothMetrics, BoundsPropertyTest,
    ::testing::Combine(::testing::Values(DistanceMetric::kPointToLine,
                                         DistanceMetric::kPointToSegment),
                       ::testing::Values(0, 1, 2, 3)),
    [](const auto& naming_info) {
      const DistanceMetric metric = std::get<0>(naming_info.param);
      const int quadrant = std::get<1>(naming_info.param);
      return std::string(metric == DistanceMetric::kPointToLine ? "Line"
                                                                : "Segment") +
             "Q" + std::to_string(quadrant);
    });

TEST(BoundsTest, ThinCollinearBoxesStaySound) {
  // Regression for the Eq. (8) soundness gap: near-collinear point runs
  // produce hair-thin boxes whose bounding rays exit through the long side
  // immediately; the upper bound must still cover the far corner. This is
  // the shape data-centric rotation feeds the bounds on straight runs.
  Rng rng(4242);
  for (DistanceMetric metric : {DistanceMetric::kPointToLine,
                                DistanceMetric::kPointToSegment}) {
    for (int iter = 0; iter < 3000; ++iter) {
      const int quadrant = static_cast<int>(rng.UniformInt(0, 3));
      const QuadrantRange range = QuadrantAngles(quadrant);
      const double axis =
          rng.Uniform(range.start + 1e-4, range.end - 1e-4);
      QuadrantBound qb(quadrant);
      std::vector<Vec2> points;
      const int n = static_cast<int>(rng.UniformInt(2, 25));
      const double jitter = rng.Bernoulli(0.5) ? 1e-13 : 1e-9;
      for (int i = 0; i < n; ++i) {
        const double r = rng.Uniform(5.0, 450.0);
        Vec2 p{r * std::cos(axis), r * std::sin(axis)};
        p += Vec2{rng.Uniform(-jitter, jitter),
                  rng.Uniform(-jitter, jitter)};
        if (QuadrantOf(p) != quadrant) continue;
        points.push_back(p);
        qb.Add(p);
      }
      if (qb.empty()) continue;
      // End point slightly off the run axis (the failing configuration),
      // or far off it.
      const double offset =
          rng.Bernoulli(0.5) ? rng.Uniform(-0.08, 0.08)
                             : rng.Uniform(-1.2, 1.2);
      const double er = rng.Uniform(10.0, 600.0);
      const Vec2 end{er * std::cos(axis + offset),
                     er * std::sin(axis + offset)};
      const double exact = ExactMax(points, end, metric);
      const DeviationBounds bounds = QuadrantDeviationBounds(qb, end, metric);
      const double tol = 1e-7 * (1.0 + exact);
      EXPECT_LE(bounds.lower, exact + tol);
      EXPECT_GE(bounds.upper, exact - tol);
    }
  }
}

TEST(BoundsTest, DegenerateEndUsesCornerBounds) {
  // With end == origin the deviation collapses to |p - s|; the bounds must
  // remain a valid sandwich of max |p|.
  Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    const int quadrant = static_cast<int>(rng.UniformInt(0, 3));
    QuadrantBound qb(quadrant);
    std::vector<Vec2> points;
    const int n = static_cast<int>(rng.UniformInt(1, 20));
    for (int i = 0; i < n; ++i) {
      const Vec2 p = RandomPointInQuadrant(rng, quadrant, 0.5, 100.0);
      points.push_back(p);
      qb.Add(p);
    }
    const double exact = ExactMax(points, {0.0, 0.0},
                                  DistanceMetric::kPointToLine);
    const DeviationBounds bounds =
        QuadrantDeviationBounds(qb, {0.0, 0.0}, DistanceMetric::kPointToLine);
    EXPECT_LE(bounds.lower, exact + 1e-9);
    EXPECT_GE(bounds.upper, exact - 1e-9);
  }
}

TEST(BoundsTest, SinglePointBoundsAreExact) {
  // One buffered point: box and lines collapse onto it, so both bounds
  // equal its distance exactly.
  QuadrantBound qb(0);
  const Vec2 p{30.0, 40.0};
  qb.Add(p);
  const Vec2 end{100.0, 10.0};
  const double exact =
      PointToLineDistance(p, {0.0, 0.0}, end);
  const DeviationBounds bounds =
      QuadrantDeviationBounds(qb, end, DistanceMetric::kPointToLine);
  EXPECT_NEAR(bounds.lower, exact, 1e-9);
  EXPECT_NEAR(bounds.upper, exact, 1e-9);
}

TEST(BoundsTest, TightnessBeatsBoxBoundsOnAverage) {
  // The significant-point bounds should be tighter (smaller gap) than the
  // plain Theorem 5.2 box bounds on typical data — this is the reason the
  // bounding lines exist.
  Rng rng(99);
  double gap_sig = 0.0;
  double gap_box = 0.0;
  for (int iter = 0; iter < 2000; ++iter) {
    QuadrantBound qb(0);
    const int n = static_cast<int>(rng.UniformInt(3, 30));
    for (int i = 0; i < n; ++i) {
      qb.Add(RandomPointInQuadrant(rng, 0, 10.0, 200.0));
    }
    const Vec2 end = RandomPointInQuadrant(rng, 0, 50.0, 400.0);
    const auto sig =
        QuadrantDeviationBounds(qb, end, DistanceMetric::kPointToLine);
    const auto box =
        BoxDeviationBounds(qb, end, DistanceMetric::kPointToLine);
    gap_sig += sig.upper - sig.lower;
    gap_box += box.upper - box.lower;
  }
  EXPECT_LT(gap_sig, gap_box);
}

TEST(BoundsTest, FastBoundsMatchReferenceAcrossMetrics) {
  // The fast kernel's squared/cross-domain composition must map back onto
  // the reference's metre-domain sound bounds through the (monotone) sqrt
  // / divide-by-|end|, for every metric branch. This is the bound-level
  // half of the byte-identical guarantee; the engine-level half is the
  // kernel differential in bqs_compressor_test.
  Rng rng(41);
  int checked = 0;
  for (int trial = 0; trial < 30000; ++trial) {
    const int quadrant = trial % 4;
    QuadrantBound reference_qb(quadrant);
    QuadrantBound fast_qb(quadrant);
    const int n = 1 + trial % 7;
    for (int i = 0; i < n; ++i) {
      const Vec2 p = RandomPointInQuadrant(rng, quadrant, 0.01, 300.0);
      reference_qb.Add(p);
      fast_qb.AddCross(p);
    }
    const Vec2 end{rng.Uniform(-250.0, 350.0), rng.Uniform(-150.0, 150.0)};
    if (end == Vec2{0.0, 0.0}) continue;
    const int end_q = QuadrantOf(end);
    for (const DistanceMetric metric :
         {DistanceMetric::kPointToLine, DistanceMetric::kPointToSegment}) {
      const DeviationBounds reference =
          QuadrantDeviationBounds(reference_qb, end, metric);
      const bool in_q = metric == DistanceMetric::kPointToLine
                            ? (end_q & 1) == (quadrant & 1)
                            : end_q == quadrant;
      const FastQuadrantBounds fast =
          QuadrantFastBounds(fast_qb, end, in_q, metric);
      if (!fast.ok) continue;  // guard band: the engine would fall back.
      ++checked;
      double lower;
      double upper;
      if (metric == DistanceMetric::kPointToLine) {
        const double len = end.Norm();
        lower = fast.lower / len;
        upper = fast.upper / len;
      } else {
        lower = std::sqrt(fast.lower);
        upper = std::sqrt(fast.upper);
      }
      ASSERT_TRUE(ApproxEqual(lower, reference.lower, 1e-9, 1e-9))
          << "trial " << trial << " lower " << lower << " vs "
          << reference.lower;
      ASSERT_TRUE(ApproxEqual(upper, reference.upper, 1e-9, 1e-9))
          << "trial " << trial << " upper " << upper << " vs "
          << reference.upper;
    }
  }
  // The guard band must be the rare exception, not the rule.
  EXPECT_GT(checked, 50000);
}

TEST(BoundsTest, FastBoundsDecisionsMatchReferenceAgainstEpsilon) {
  // Decision-level agreement: comparing the fast values against the
  // squared threshold gives the reference's include/split verdict whenever
  // the comparison is outside the ~1e-12 guard band (inside it the engine
  // recomputes with the reference, so any verdict is consistent).
  Rng rng(42);
  for (int trial = 0; trial < 20000; ++trial) {
    const int quadrant = trial % 4;
    QuadrantBound qb(quadrant);
    for (int i = 0; i < 1 + trial % 5; ++i) {
      qb.Add(RandomPointInQuadrant(rng, quadrant, 0.1, 120.0));
    }
    const Vec2 end{rng.Uniform(-120.0, 200.0), rng.Uniform(-90.0, 90.0)};
    if (end == Vec2{0.0, 0.0}) continue;
    const double eps = rng.Uniform(0.5, 60.0);
    const int end_q = QuadrantOf(end);
    const DeviationBounds reference =
        QuadrantDeviationBounds(qb, end, DistanceMetric::kPointToLine);
    const FastQuadrantBounds fast = QuadrantFastBounds(
        qb, end, (end_q & 1) == (quadrant & 1), DistanceMetric::kPointToLine);
    if (!fast.ok) continue;
    const double threshold = eps * eps * end.NormSq();
    const double upper_sq = fast.upper * fast.upper;
    const double lower_sq = fast.lower * fast.lower;
    if (upper_sq <= threshold * (1.0 - 1e-12)) {
      EXPECT_LE(reference.upper, eps) << "trial " << trial;
    } else if (upper_sq > threshold * (1.0 + 1e-12)) {
      EXPECT_GT(reference.upper, eps) << "trial " << trial;
    }
    if (lower_sq > threshold * (1.0 + 1e-12)) {
      EXPECT_GT(reference.lower, eps) << "trial " << trial;
    } else if (lower_sq <= threshold * (1.0 - 1e-12)) {
      EXPECT_LE(reference.lower, eps) << "trial " << trial;
    }
  }
}

TEST(BoundsTest, BoxCornerPretestImpliesTightInclude) {
  // Soundness of the engine's box-corner include pre-test: whenever
  // BoxCrossUpper clears the squared include threshold, the reference
  // upper bound is within epsilon and the tight fast composition yields an
  // include verdict (never split, inconclusive or even a guard-band
  // fallback). Epsilon is chosen to make the pre-test pass by a hair, so
  // the rounding margin itself is what is under test. Shapes: random
  // clouds, hair-thin rotated runs (the bounding-ray intersections carry
  // the most slab rounding there), runs whose extreme points sit within
  // ~1e-13 rad of a quadrant axis, all at unit and UTM-like scales; ends
  // random or nearly parallel to the run (maximal cancellation).
  constexpr double kBandLo = 1.0 - 1e-12;
  Rng rng(4242);
  int includes = 0;
  for (int trial = 0; trial < 60000; ++trial) {
    const int quadrant = trial % 4;
    const int shape = (trial / 4) % 3;
    const double scale = (trial / 12) % 2 == 0 ? 1.0 : rng.Uniform(1e6, 1e7);
    const QuadrantRange range = QuadrantAngles(quadrant);
    double theta = rng.Uniform(range.start, range.end);
    if (shape == 2) {
      const double off = rng.Uniform(1e-14, 1e-12);
      theta = rng.Bernoulli(0.5) ? range.start + off : range.end - off;
    }
    const Vec2 dir{std::cos(theta), std::sin(theta)};
    const Vec2 normal{-dir.y, dir.x};
    QuadrantBound qb(quadrant);
    const int n = 1 + trial % 9;
    for (int i = 0; i < n; ++i) {
      Vec2 p;
      if (shape == 0) {
        p = RandomPointInQuadrant(rng, quadrant, 0.5, 500.0) * scale;
      } else {
        const double r = rng.Uniform(1.0, 500.0) * scale;
        const double lateral = shape == 1 ? rng.Uniform(-1e-9, 1e-9) * r : 0.0;
        p = dir * r + normal * lateral;
      }
      if (QuadrantOf(p) != quadrant || p == Vec2{0.0, 0.0}) continue;
      qb.AddCross(p);
    }
    if (qb.empty()) continue;

    Vec2 end;
    const double len = rng.Uniform(1.0, 600.0) * scale;
    if (rng.Bernoulli(0.5)) {
      const double phi = rng.Uniform(0.0, 2.0 * kPi);
      end = Vec2{std::cos(phi), std::sin(phi)} * len;
    } else {
      const double tilt = std::pow(
          10.0, -static_cast<double>(rng.UniformInt(0, 9)));
      const double phi = theta + rng.Uniform(-1e-3, 1e-3) * tilt;
      const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      end = Vec2{std::cos(phi), std::sin(phi)} * (sign * len);
    }
    if (end == Vec2{0.0, 0.0}) continue;

    const double box_upper = BoxCrossUpper(qb.box(), end);
    const double slack[] = {1e-15, 1e-13, 1e-6, 0.5};
    const double eps = box_upper / std::sqrt(end.NormSq() * kBandLo) *
                       (1.0 + slack[static_cast<std::size_t>(
                                  rng.UniformInt(0, 3))]);
    const double threshold = eps * eps * end.NormSq();
    if (!(box_upper * box_upper <= threshold * kBandLo)) continue;
    ++includes;

    SCOPED_TRACE(::testing::Message() << "trial " << trial << " shape "
                                      << shape << " scale " << scale);
    const DeviationBounds reference = QuadrantDeviationBounds(
        qb, end, DistanceMetric::kPointToLine, BoundsMode::kSound);
    EXPECT_LE(reference.upper, eps);
    for (const bool in_q : {false, true}) {
      const FastQuadrantBounds fast =
          QuadrantFastBounds(qb, end, in_q, DistanceMetric::kPointToLine);
      if (!fast.ok) continue;  // the engine's fallback would include too.
      EXPECT_LE(fast.upper, box_upper);
      // The engine's include verdict, stricter than "not split or
      // inconclusive": not even a guard-band fallback.
      EXPECT_LE(fast.upper * fast.upper, threshold * kBandLo);
    }
  }
  EXPECT_GT(includes, 50000);
}

TEST(BoundsTest, MergeMaxAggregatesBothSides) {
  DeviationBounds a{1.0, 5.0};
  const DeviationBounds b{2.0, 3.0};
  a.MergeMax(b);
  EXPECT_DOUBLE_EQ(a.lower, 2.0);
  EXPECT_DOUBLE_EQ(a.upper, 5.0);
}

}  // namespace
}  // namespace bqs
