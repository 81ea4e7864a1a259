// Time-sensitive compression: the error bound holds in the lifted
// (x, y, scaled-t) space, which is the paper's Section V-G use case.
#include "core/time_sensitive.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/fbqs_compressor.h"
#include "simulation/datasets.h"
#include "test_util.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace {

using testing_util::SmoothWalk;

// Lifts the original stream the same way the compressor does and measures
// the exact 3-D deviation against the compressed keys.
double LiftedMaxDeviation(const Trajectory& walk,
                          const CompressedTrajectory& keys,
                          double time_scale) {
  std::vector<TrackPoint3> lifted;
  for (const TrackPoint& p : walk) {
    lifted.push_back(TrackPoint3{
        Vec3{p.pos.x, p.pos.y, (p.t - walk.front().t) * time_scale}, p.t});
  }
  return EvaluateCompression(lifted, keys, DistanceMetric::kPointToLine)
      .max_deviation;
}

TEST(TimeSensitiveTest, LiftedDeviationIsBounded) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    const Trajectory walk = SmoothWalk(seed, 2500);
    TimeSensitiveOptions options;
    options.epsilon = 12.0;
    options.time_scale = 1.0;
    TimeSensitiveCompressor compressor(options);
    const CompressedTrajectory compressed = CompressAll(compressor, walk);
    EXPECT_LE(LiftedMaxDeviation(walk, compressed, options.time_scale),
              options.epsilon * (1.0 + 1e-9));
  }
}

TEST(TimeSensitiveTest, PenalizesStopsThatPlainBqsDiscards) {
  // An object that runs, waits, then runs on the same straight line: shape-
  // only compression keeps 2 points, but a time-sensitive bound must keep a
  // key near the stop or the reconstructed position at stop time is wrong.
  Trajectory walk;
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {  // run east 500 m
    walk.push_back(TrackPoint{{i * 10.0, 0.0}, t, {10.0, 0.0}});
    t += 1.0;
  }
  for (int i = 0; i < 100; ++i) {  // wait at x = 500 for 100 s
    walk.push_back(TrackPoint{{500.0, 0.0}, t, {0.0, 0.0}});
    t += 1.0;
  }
  for (int i = 1; i <= 50; ++i) {  // run east again
    walk.push_back(TrackPoint{{500.0 + i * 10.0, 0.0}, t, {10.0, 0.0}});
    t += 1.0;
  }

  TimeSensitiveOptions options;
  options.epsilon = 15.0;
  options.time_scale = 1.0;  // 1 s of temporal error == 1 m
  TimeSensitiveCompressor ts(options);
  const CompressedTrajectory via_ts = CompressAll(ts, walk);
  EXPECT_GE(via_ts.size(), 4u)
      << "the stop must survive time-sensitive compression";

  FbqsCompressor plain(BqsOptions{.epsilon = 15.0});
  const CompressedTrajectory via_plain = CompressAll(plain, walk);
  EXPECT_EQ(via_plain.size(), 2u)
      << "shape-only compression collapses the whole run";
}

TEST(TimeSensitiveTest, ZeroTimeScaleDegeneratesToShapeOnly) {
  const Trajectory walk = SmoothWalk(9, 1500);
  TimeSensitiveOptions options;
  options.epsilon = 10.0;
  options.time_scale = 0.0;
  TimeSensitiveCompressor ts(options);
  const CompressedTrajectory compressed = CompressAll(ts, walk);
  // With z identically 0 the lifted bound equals the planar bound.
  EXPECT_LE(LiftedMaxDeviation(walk, compressed, 0.0),
            options.epsilon * (1.0 + 1e-9));
}

TEST(TimeSensitiveTest, ResetAllowsReuse) {
  const Trajectory walk = SmoothWalk(10, 800);
  TimeSensitiveCompressor ts(TimeSensitiveOptions{});
  const auto first = CompressAll(ts, walk);
  const auto second = CompressAll(ts, walk);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first.keys[i].index, second.keys[i].index);
  }
}

// Output identity across refactors: TSBQS key indices and every decision
// counter of the inner 3-D engine on the synthetic benchmark stream,
// recorded before the 3-D and 4-D control loops merged.
TEST(TimeSensitiveTest, OutputIsPinned) {
  const Dataset synthetic = BuildSyntheticDataset(0.15);
  for (const bool exact : {false, true}) {
    TimeSensitiveOptions options;
    options.epsilon = 10.0;
    options.time_scale = 1.0;
    options.exact = exact;
    TimeSensitiveCompressor ts(options);
    const CompressedTrajectory out = CompressAll(ts, synthetic.stream);
    EXPECT_EQ(testing_util::OutputPin(out.keys, ts.stats()),
              exact ? "keys=261 digest=13577282642547042335 stats=4500,243,0,"
                      "2874,69,1572,1382,190,0,259,0,0,0,"
                    : "keys=406 digest=3407908736790779630 stats=4500,258,0,"
                      "4241,63,0,0,0,341,404,0,0,0,")
        << "exact " << exact;
  }
}

TEST(TimeSensitiveTest, OptionsValidate) {
  TimeSensitiveOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.epsilon = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    options.epsilon = bad;
    EXPECT_FALSE(options.Validate().ok()) << "epsilon " << bad;
  }
  options.epsilon = 5.0;
  options.time_scale = -0.1;
  EXPECT_FALSE(options.Validate().ok());
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    options.time_scale = bad;
    EXPECT_FALSE(options.Validate().ok()) << "time_scale " << bad;
  }
  options.time_scale = 0.0;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace bqs
