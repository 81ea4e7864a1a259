// RunningStats (Welford), percentiles, histogram.
#include "common/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace bqs {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, SampleVarianceUsesNMinusOne) {
  RunningStats s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  Rng rng(17);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    whole.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmptyIsNoop) {
  RunningStats a;
  a.Add(5.0);
  RunningStats b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 1);
  b.Merge(a);
  EXPECT_EQ(b.count(), 1);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(RunningStatsTest, NumericallyStableForLargeOffsets) {
  RunningStats s;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) s.Add(offset + (i % 2));
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(PercentileTest, InterpolatesLinearly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
}

}  // namespace
}  // namespace bqs
