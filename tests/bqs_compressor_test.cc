// BqsCompressor: the error-bound guarantee, differential equivalence with
// the exact greedy reference, decision statistics, and edge cases.
#include "core/bqs_compressor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/buffered_greedy.h"
#include "common/op_counters.h"
#include "common/simd.h"
#include "core/fbqs_compressor.h"
#include "simulation/datasets.h"
#include "test_util.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace {

using testing_util::JaggedWalk;
using testing_util::NoisyLine;
using testing_util::SmoothWalk;

// Oracle configurations: the hull from the first buffered point, the flat
// buffer forever, the reference kernel, the seed implementation
// (reference kernel + literal whole-buffer rescans), and the unrotated
// quadrant system. The default kernel settles flat-phase box pre-test
// misses with the exact scan, so its decision mix differs from the
// reference kernel's while its decisions do not. With the hull from the
// first point there is no flat phase and the fast kernel follows the
// reference's bounds-first order, so decision-mix assertions that mean
// "fast composition == reference composition" run on kHullFirst.
using Oracle = internal::KernelOracle;
constexpr Oracle kHullFirst{.hull_migration = 1};
constexpr Oracle kFlatBuffer{.hull_migration = SIZE_MAX};
constexpr Oracle kReferenceKernel{.reference_kernel = true};
constexpr Oracle kSeed{.reference_kernel = true, .hull_migration = SIZE_MAX};
constexpr Oracle kNoRotation{.data_centric_rotation = false};

class BqsErrorBoundTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(BqsErrorBoundTest, CompressionIsErrorBounded) {
  const auto [seed, epsilon] = GetParam();
  for (const bool jagged : {false, true}) {
    const Trajectory walk =
        jagged ? JaggedWalk(seed, 3000) : SmoothWalk(seed, 3000);
    BqsOptions options;
    options.epsilon = epsilon;
    BqsCompressor bqs(options);
    const CompressedTrajectory compressed = CompressAll(bqs, walk);
    const DeviationReport report =
        EvaluateCompression(walk, compressed, options.metric);
    EXPECT_LE(report.max_deviation, epsilon * (1.0 + 1e-9))
        << (jagged ? "jagged" : "smooth") << " seed=" << seed
        << " eps=" << epsilon;
    ASSERT_GE(compressed.size(), 2u);
    EXPECT_EQ(compressed.keys.front().index, 0u);
    EXPECT_EQ(compressed.keys.back().index, walk.size() - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTolerances, BqsErrorBoundTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(2.0, 5.0, 10.0, 20.0)));

class BqsSegmentMetricTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BqsSegmentMetricTest, SegmentMetricIsErrorBounded) {
  const Trajectory walk = JaggedWalk(GetParam(), 2500);
  BqsOptions options;
  options.epsilon = 8.0;
  options.metric = DistanceMetric::kPointToSegment;
  BqsCompressor bqs(options);
  const CompressedTrajectory compressed = CompressAll(bqs, walk);
  const DeviationReport report =
      EvaluateCompression(walk, compressed, options.metric);
  EXPECT_LE(report.max_deviation, options.epsilon * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BqsSegmentMetricTest,
                         ::testing::Values(11u, 12u, 13u, 14u));

TEST(BqsCompressorTest, MatchesUnboundedGreedyReferenceExactly) {
  // BQS with exact fallback takes the same include/split decisions as the
  // sliding-window greedy with an unbounded buffer; the bound machinery
  // must only short-circuit scans, never change outcomes. This is also an
  // end-to-end validity check of the bounds on organic decision sequences.
  for (uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    for (double epsilon : {3.0, 10.0, 25.0}) {
      const Trajectory walk = JaggedWalk(seed, 2000);

      BqsOptions bqs_options;
      bqs_options.epsilon = epsilon;
      BqsCompressor bqs(bqs_options);
      const CompressedTrajectory via_bqs = CompressAll(bqs, walk);

      BufferedGreedyOptions greedy_options;
      greedy_options.epsilon = epsilon;
      greedy_options.buffer_size = 0;  // unbounded reference
      BufferedGreedy greedy(greedy_options);
      const CompressedTrajectory via_greedy = CompressAll(greedy, walk);

      ASSERT_EQ(via_bqs.size(), via_greedy.size())
          << "seed=" << seed << " eps=" << epsilon;
      for (std::size_t i = 0; i < via_bqs.size(); ++i) {
        EXPECT_EQ(via_bqs.keys[i].index, via_greedy.keys[i].index)
            << "key " << i << " seed=" << seed << " eps=" << epsilon;
      }
    }
  }
}

TEST(BqsCompressorTest, MatchesGreedyReferenceUnderSegmentMetric) {
  // Same differential as above but under the point-to-segment metric,
  // exercising the Eq. (11) upper bound and the corrected edge-distance
  // lower bound on organic decision sequences.
  for (uint64_t seed : {26u, 27u, 28u}) {
    const Trajectory walk = JaggedWalk(seed, 1500);
    BqsOptions bqs_options;
    bqs_options.epsilon = 8.0;
    bqs_options.metric = DistanceMetric::kPointToSegment;
    BqsCompressor bqs(bqs_options);
    const CompressedTrajectory via_bqs = CompressAll(bqs, walk);

    BufferedGreedyOptions greedy_options;
    greedy_options.epsilon = 8.0;
    greedy_options.metric = DistanceMetric::kPointToSegment;
    greedy_options.buffer_size = 0;
    BufferedGreedy greedy(greedy_options);
    const CompressedTrajectory via_greedy = CompressAll(greedy, walk);

    ASSERT_EQ(via_bqs.size(), via_greedy.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < via_bqs.size(); ++i) {
      EXPECT_EQ(via_bqs.keys[i].index, via_greedy.keys[i].index)
          << "key " << i << " seed=" << seed;
    }
  }
}

TEST(BqsCompressorTest, EmptyStreamYieldsNothing) {
  BqsCompressor bqs;
  std::vector<KeyPoint> keys;
  bqs.Finish(&keys);
  EXPECT_TRUE(keys.empty());
}

TEST(BqsCompressorTest, SinglePointYieldsSingleKey) {
  BqsCompressor bqs;
  std::vector<KeyPoint> keys;
  bqs.Push(TrackPoint{{1.0, 2.0}, 0.0, {}}, &keys);
  bqs.Finish(&keys);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].index, 0u);
}

TEST(BqsCompressorTest, StationaryNoiseCompressesToTwoPoints) {
  const Trajectory walk = NoisyLine(31, 500, 0.0);
  BqsOptions options;
  options.epsilon = 5.0;
  BqsCompressor bqs(options);
  const CompressedTrajectory compressed = CompressAll(bqs, walk);
  EXPECT_EQ(compressed.size(), 2u);
}

TEST(BqsCompressorTest, SubToleranceNoisyLineCompressesToTwoPoints) {
  const Trajectory walk = NoisyLine(32, 500, 1.5);
  BqsOptions options;
  options.epsilon = 5.0;
  BqsCompressor bqs(options);
  const CompressedTrajectory compressed = CompressAll(bqs, walk);
  EXPECT_EQ(compressed.size(), 2u)
      << "a line with noise < epsilon must keep only its endpoints";
}

TEST(BqsCompressorTest, AllDuplicatePointsCompressToTwo) {
  Trajectory walk(300, TrackPoint{{7.0, 7.0}, 0.0, {}});
  for (std::size_t i = 0; i < walk.size(); ++i) {
    walk[i].t = static_cast<double>(i);
  }
  BqsCompressor bqs;
  const CompressedTrajectory compressed = CompressAll(bqs, walk);
  EXPECT_EQ(compressed.size(), 2u);
}

TEST(BqsCompressorTest, StatsAccountForEveryPoint) {
  const Trajectory walk = SmoothWalk(41, 4000);
  BqsOptions options;
  options.epsilon = 10.0;
  BqsCompressor bqs(options);
  CompressAll(bqs, walk);
  const DecisionStats& stats = bqs.stats();
  EXPECT_EQ(stats.points, walk.size());
  EXPECT_GE(stats.PruningPower(), 0.0);
  EXPECT_LE(stats.PruningPower(), 1.0);
  EXPECT_GE(stats.PruningPowerInclWarmup(), 0.0);
  // On smooth data the bounds should prune the vast majority of scans
  // in the paper's Algorithm 1 order, which the hull from the first point
  // runs (the default kernel trades some bound decisions for cheaper
  // flat-buffer scans).
  BqsCompressor paper_order(options, kHullFirst);
  CompressAll(paper_order, walk);
  EXPECT_GT(paper_order.stats().PruningPower(), 0.8);
}

TEST(BqsCompressorTest, ResetClearsState) {
  const Trajectory walk = SmoothWalk(42, 500);
  BqsCompressor bqs;
  const CompressedTrajectory first = CompressAll(bqs, walk);
  const CompressedTrajectory second = CompressAll(bqs, walk);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first.keys[i].index, second.keys[i].index);
  }
}

TEST(BqsCompressorTest, ProbeObservesSandwichedBounds) {
  // The hull from the first point composes bounds on every point after
  // the 8-point warm-up (the default kernel's scan phase decides this
  // walk's short segments without any).
  const Trajectory walk = SmoothWalk(43, 2000);
  BqsOptions options;
  options.epsilon = 8.0;
  BqsCompressor bqs(options, kHullFirst);
  int violations = 0;
  int observations = 0;
  bqs.SetProbe([&](const internal::BoundsProbe& probe) {
    ++observations;
    if (probe.actual >= 0.0) {
      const double tol = 1e-7 * (1.0 + probe.actual);
      if (probe.lower > probe.actual + tol ||
          probe.upper < probe.actual - tol) {
        ++violations;
      }
    }
  });
  CompressAll(bqs, walk);
  EXPECT_GT(observations, 100);
  EXPECT_EQ(violations, 0);
}

TEST(BqsCompressorTest, PaperTrivialIncludeCanViolateTheBound) {
  // Documents the Algorithm-1 soundness gap the safe default closes: fly
  // out 10 m, come back next to the start, end the stream there. The
  // paper-faithful mode ends the segment at the near-start point without
  // ever validating the earlier excursion against that end.
  Trajectory walk;
  walk.push_back(TrackPoint{{0.0, 0.0}, 0.0, {}});
  walk.push_back(TrackPoint{{10.0, 0.0}, 1.0, {}});
  walk.push_back(TrackPoint{{0.1, 0.5}, 2.0, {}});

  BqsOptions options;
  options.epsilon = 1.0;
  BqsCompressor paper_bqs(options, {.data_centric_rotation = false,
                                    .paper_trivial_include = true});
  const CompressedTrajectory paper_out = CompressAll(paper_bqs, walk);
  const double paper_dev =
      EvaluateCompression(walk, paper_out, options.metric).max_deviation;
  EXPECT_GT(paper_dev, options.epsilon)
      << "expected the documented paper-mode violation on this input";

  BqsCompressor safe_bqs(options, kNoRotation);
  const CompressedTrajectory safe_out = CompressAll(safe_bqs, walk);
  const double safe_dev =
      EvaluateCompression(walk, safe_out, options.metric).max_deviation;
  EXPECT_LE(safe_dev, options.epsilon * (1.0 + 1e-9));
}

TEST(BqsCompressorTest, RotationTogglePreservesTheBound) {
  for (const bool rotate : {false, true}) {
    const Trajectory walk = JaggedWalk(55, 2000);
    BqsOptions options;
    options.epsilon = 6.0;
    BqsCompressor bqs(options, {.data_centric_rotation = rotate});
    const CompressedTrajectory compressed = CompressAll(bqs, walk);
    const DeviationReport report =
        EvaluateCompression(walk, compressed, options.metric);
    EXPECT_LE(report.max_deviation, options.epsilon * (1.0 + 1e-9))
        << "rotation=" << rotate;
  }
}

TEST(BqsCompressorTest, KeyIndicesStrictlyIncrease) {
  const Trajectory walk = JaggedWalk(60, 1500);
  BqsCompressor bqs(BqsOptions{.epsilon = 4.0});
  const CompressedTrajectory compressed = CompressAll(bqs, walk);
  for (std::size_t i = 1; i < compressed.size(); ++i) {
    EXPECT_LT(compressed.keys[i - 1].index, compressed.keys[i].index);
  }
}

void ExpectByteIdenticalKeys(const CompressedTrajectory& a,
                             const CompressedTrajectory& b,
                             const char* context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.keys[i].index, b.keys[i].index) << context << " key " << i;
    // TrackPoint::operator== compares every double exactly, so this is a
    // byte-for-byte check (all emitted points are original stream points).
    ASSERT_TRUE(a.keys[i].point == b.keys[i].point) << context << " key "
                                                    << i;
  }
}

TEST(BqsCompressorTest, HullResolverIsByteIdenticalToBruteForce) {
  // The Melkman-hull exact path takes exactly the decisions of the seed's
  // whole-buffer rescan, over random_walk and von Mises streams, both
  // metrics, a range of tolerances.
  for (uint64_t seed : {71u, 72u, 73u}) {
    const Trajectory walks[] = {SmoothWalk(seed, 2500),
                                JaggedWalk(seed, 2500),
                                testing_util::VonMisesWalk(seed, 2500, 2.0)};
    for (const Trajectory& walk : walks) {
      for (double epsilon : {2.0, 5.0, 10.0, 25.0}) {
        for (DistanceMetric metric : {DistanceMetric::kPointToLine,
                                      DistanceMetric::kPointToSegment}) {
          BqsOptions options;
          options.epsilon = epsilon;
          options.metric = metric;

          BqsCompressor via_hull(options, kHullFirst);
          BqsCompressor via_brute(options, kSeed);
          const CompressedTrajectory hull_out = CompressAll(via_hull, walk);
          const CompressedTrajectory brute_out = CompressAll(via_brute, walk);
          ExpectByteIdenticalKeys(hull_out, brute_out, "resolver diff");

          // Same decisions imply the same decision mix.
          EXPECT_EQ(via_hull.stats().exact_computations,
                    via_brute.stats().exact_computations);
          EXPECT_EQ(via_hull.stats().segments, via_brute.stats().segments);
          EXPECT_EQ(via_hull.stats().upper_bound_includes,
                    via_brute.stats().upper_bound_includes);
          EXPECT_EQ(via_hull.stats().lower_bound_splits,
                    via_brute.stats().lower_bound_splits);
          // And the hull must never scan more than the buffer would.
          EXPECT_LE(via_hull.stats().exact_points_scanned,
                    via_brute.stats().exact_points_scanned);
        }
      }
    }
  }
}

TEST(BqsCompressorTest, FastKernelIsByteIdenticalToReferenceCorpus) {
  // The transcendental-free kernel takes exactly the decisions of the
  // seed's atan2/sqrt path over the full fuzz corpus — every stream
  // family x metric x rotation x hull migration point x tolerance. Any
  // guard-band push re-runs the reference composition, so a divergence
  // here means a genuine kernel bug. (The paper-literal bound modes always
  // run the reference kernel, so they have no fast side to compare.) The
  // decision mix is compared wherever the fast kernel follows the
  // reference's bounds-first order: with the hull from the first point, and
  // under the segment metric (the flat-buffer scan runs first, and the
  // scan phase runs, only under the line metric).
  int configs = 0;
  for (uint64_t seed : {171u, 172u, 173u}) {
    const Trajectory walks[] = {SmoothWalk(seed, 1200), JaggedWalk(seed, 1200),
                                testing_util::VonMisesWalk(seed, 1200, 2.0)};
    for (const Trajectory& walk : walks) {
      for (double epsilon : {2.5, 10.0}) {
        for (DistanceMetric metric : {DistanceMetric::kPointToLine,
                                      DistanceMetric::kPointToSegment}) {
          for (bool rotate : {false, true}) {
            for (Oracle oracle : {Oracle{}, kHullFirst, kFlatBuffer}) {
              BqsOptions options;
              options.epsilon = epsilon;
              options.metric = metric;
              oracle.data_centric_rotation = rotate;

              Oracle reference_oracle = oracle;
              reference_oracle.reference_kernel = true;
              BqsCompressor fast(options, oracle);
              BqsCompressor reference(options, reference_oracle);
              const CompressedTrajectory fast_out = CompressAll(fast, walk);
              const CompressedTrajectory reference_out =
                  CompressAll(reference, walk);
              ++configs;
              SCOPED_TRACE(::testing::Message()
                           << "seed=" << seed << " eps=" << epsilon
                           << " metric=" << static_cast<int>(metric)
                           << " rotate=" << rotate
                           << " migration=" << oracle.hull_migration);
              ExpectByteIdenticalKeys(fast_out, reference_out,
                                      "kernel diff");
              EXPECT_EQ(fast.stats().segments, reference.stats().segments);
              if (oracle.hull_migration == 1 ||
                  metric == DistanceMetric::kPointToSegment) {
                EXPECT_EQ(fast.stats().upper_bound_includes,
                          reference.stats().upper_bound_includes);
                EXPECT_EQ(fast.stats().lower_bound_splits,
                          reference.stats().lower_bound_splits);
                EXPECT_EQ(fast.stats().exact_computations,
                          reference.stats().exact_computations);
              }
              EXPECT_EQ(reference.stats().kernel_fallbacks, 0u);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 3 * 3 * 2 * 2 * 2 * 3);  // 216 kernel pairs.
}

TEST(BqsCompressorTest, FastKernelHandlesStationaryRuns) {
  // Regression test for the near-axis sliver: data-centric rotation of a
  // stationary run (duplicate out-of-epsilon fixes) lands rel vectors
  // within sub-ulp of the rotated +x axis, where sign tests and the
  // atan2+fmod formula genuinely disagree — the kernel must defer those
  // points to the reference semantics to stay byte-identical.
  Trajectory walk;
  double t = 0.0;
  auto emit = [&](double x, double y, int repeat) {
    for (int i = 0; i < repeat; ++i) {
      walk.push_back(TrackPoint{{x, y}, t, {}});
      t += 1.0;
    }
  };
  emit(0.0, 0.0, 1);
  emit(27.7, -1.9, 18);  // stop: identical out-of-epsilon fixes.
  emit(41.3, -13.6, 1);
  emit(55.0, -25.2, 6);  // second stop.
  emit(68.2, -37.5, 1);
  emit(68.2, -37.5, 9);

  for (bool exactly_collinear : {false, true}) {
    Trajectory stream = walk;
    if (exactly_collinear) {
      // A perfectly straight run: rotation estimates the exact direction,
      // rotated y-residuals collapse to rounding level.
      stream.clear();
      for (int i = 0; i < 40; ++i) {
        stream.push_back(TrackPoint{{3.0 * i, 4.0 * i}, double(i), {}});
      }
    }
    BqsOptions options;
    options.epsilon = 10.0;
    BqsCompressor fast(options);
    BqsCompressor reference(options, kReferenceKernel);
    const CompressedTrajectory fast_out = CompressAll(fast, stream);
    const CompressedTrajectory reference_out = CompressAll(reference, stream);
    ExpectByteIdenticalKeys(fast_out, reference_out, "stationary run");
  }
}

TEST(BqsCompressorTest, HullMigrationPointIsByteIdenticalToBothPureModes) {
  // The flat-buffer -> hull migration point must be a pure scheduling
  // decision: outputs identical to the hull from the first point and to
  // the flat buffer forever, at any threshold. The decision mix moves only
  // from bounds to scans as the flat phase (where box pre-test misses are
  // scanned first) grows: every assessed point is still decided by exactly
  // one bound or scan. A threshold past kScanPhasePoints also runs the
  // scan phase, as the flat buffer forever does, so it is compared with
  // that mode; a lower one keeps the rotation warm-up short, as the hull
  // from the first point does.
  for (uint64_t seed : {181u, 182u}) {
    const Trajectory walk = JaggedWalk(seed, 2500);
    for (double epsilon : {3.0, 10.0}) {
      for (std::size_t threshold :
           {std::size_t{2}, std::size_t{4}, internal::kScanPhasePoints,
            internal::kScanPhasePoints + 1, std::size_t{1024}}) {
        BqsOptions options;
        options.epsilon = epsilon;

        BqsCompressor migrating(options, {.hull_migration = threshold});
        BqsCompressor hull(options, kHullFirst);
        BqsCompressor brute(options, kFlatBuffer);
        const CompressedTrajectory migrating_out = CompressAll(migrating, walk);
        const CompressedTrajectory hull_out = CompressAll(hull, walk);
        const CompressedTrajectory brute_out = CompressAll(brute, walk);
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " eps="
                                          << epsilon << " thr=" << threshold);
        ExpectByteIdenticalKeys(migrating_out, hull_out, "migrating vs hull");
        ExpectByteIdenticalKeys(migrating_out, brute_out, "migrating vs brute");
        EXPECT_EQ(migrating.stats().segments, brute.stats().segments);
        const auto decided = [](const DecisionStats& st) {
          return st.upper_bound_includes + st.lower_bound_splits +
                 st.exact_computations;
        };
        const bool scan_phase = threshold > internal::kScanPhasePoints;
        const DecisionStats& same_phase =
            scan_phase ? brute.stats() : hull.stats();
        EXPECT_EQ(decided(migrating.stats()), decided(same_phase));
        EXPECT_EQ(migrating.stats().warmup_checks, same_phase.warmup_checks);
        if (scan_phase) {
          EXPECT_LE(migrating.stats().exact_computations,
                    brute.stats().exact_computations);
        } else {
          EXPECT_LE(hull.stats().exact_computations,
                    migrating.stats().exact_computations);
        }
      }
    }
  }
}

TEST(BqsCompressorTest, FlatBufferMigratesIntoHullAtThreshold) {
  // Drive one long split-free segment (a straight run with sub-epsilon
  // jitter) and watch the flat buffer hand over to the hull exactly at
  // the configured threshold.
  BqsOptions options;
  options.epsilon = 5.0;
  BqsCompressor bqs(options,
                    {.hull_migration = 32, .data_centric_rotation = false});
  std::vector<KeyPoint> keys;
  Rng rng(55);
  bool seen_buffer_phase = false;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double jitter = rng.Uniform(-2.0, 2.0);
    bqs.Push(TrackPoint{{10.0 * i, jitter}, t, {}}, &keys);
    t += 1.0;
    if (!bqs.engine().hull_active()) {
      seen_buffer_phase = true;
      EXPECT_LT(bqs.engine().buffer_size(), 32u);
    } else {
      EXPECT_EQ(bqs.engine().buffer_size(), 0u)
          << "buffer must drain into the hull at the threshold";
    }
  }
  EXPECT_TRUE(seen_buffer_phase);
  EXPECT_TRUE(bqs.engine().hull_active());
}

TEST(BqsCompressorTest, HullProbeActualMatchesBruteForce) {
  // The BoundsProbe `actual` field is resolver-provided; both resolvers
  // must report the same exact deviation at every assessed point. Without
  // the rotation warm-up every point after the first is bound-assessed
  // (the flat buffer forever would otherwise decide this walk's short
  // segments in the scan phase, which is not probed).
  const Trajectory walk = JaggedWalk(81, 2000);
  struct Obs {
    uint64_t index;
    double actual;
  };
  auto run = [&](const Oracle& oracle) {
    BqsOptions options;
    options.epsilon = 6.0;
    BqsCompressor bqs(options, oracle);
    std::vector<Obs> observations;
    bqs.SetProbe([&](const internal::BoundsProbe& probe) {
      observations.push_back(Obs{probe.index, probe.actual});
    });
    CompressAll(bqs, walk);
    return observations;
  };
  const std::vector<Obs> via_hull =
      run({.hull_migration = 1, .data_centric_rotation = false});
  const std::vector<Obs> via_brute =
      run({.hull_migration = SIZE_MAX, .data_centric_rotation = false});
  ASSERT_EQ(via_hull.size(), via_brute.size());
  ASSERT_GT(via_hull.size(), 100u);
  for (std::size_t i = 0; i < via_hull.size(); ++i) {
    ASSERT_EQ(via_hull[i].index, via_brute[i].index) << "probe " << i;
    EXPECT_NEAR(via_hull[i].actual, via_brute[i].actual,
                1e-9 * (1.0 + via_brute[i].actual))
        << "probe " << i;
  }
}

TEST(BqsCompressorTest, PushBatchMatchesPushExactly) {
  const Trajectory walk = JaggedWalk(91, 3000);
  BqsOptions options;
  options.epsilon = 5.0;

  BqsCompressor one_by_one(options);
  CompressedTrajectory single;
  one_by_one.Reset();
  for (const TrackPoint& pt : walk) one_by_one.Push(pt, &single.keys);
  one_by_one.Finish(&single.keys);

  BqsCompressor batched(options);
  const CompressedTrajectory whole = CompressAll(batched, walk);
  ExpectByteIdenticalKeys(single, whole, "whole batch");
  EXPECT_EQ(one_by_one.stats().points, batched.stats().points);
  EXPECT_EQ(one_by_one.stats().exact_computations,
            batched.stats().exact_computations);
  EXPECT_EQ(one_by_one.stats().segments, batched.stats().segments);
  // The batch screens replicate the scalar counters, scan phase included.
  EXPECT_EQ(one_by_one.stats().warmup_checks, batched.stats().warmup_checks);
  EXPECT_EQ(one_by_one.stats().trivial_includes,
            batched.stats().trivial_includes);
  EXPECT_EQ(one_by_one.stats().exact_points_scanned,
            batched.stats().exact_points_scanned);

  // Chunked batches (including empty ones) must behave identically too.
  BqsCompressor chunked(options);
  chunked.Reset();
  CompressedTrajectory chunks;
  const std::span<const TrackPoint> span(walk);
  std::size_t at = 0;
  std::size_t step = 1;
  while (at < span.size()) {
    const std::size_t take = std::min(step, span.size() - at);
    chunked.PushBatch(span.subspan(at, take), &chunks.keys);
    chunked.PushBatch(span.subspan(at + take, 0), &chunks.keys);
    at += take;
    step = step * 2 + 1;
  }
  chunked.Finish(&chunks.keys);
  ExpectByteIdenticalKeys(single, chunks, "chunked batch");
}

void ExpectSameDecisions(const DecisionStats& a, const DecisionStats& b) {
  EXPECT_EQ(a.upper_bound_includes, b.upper_bound_includes);
  EXPECT_EQ(a.lower_bound_splits, b.lower_bound_splits);
  EXPECT_EQ(a.exact_computations, b.exact_computations);
  EXPECT_EQ(a.segments, b.segments);
}

TEST(BqsCompressorTest, DefaultKernelMatchesOraclesOnMovingStreams) {
  // Moving streams are where the fast kernel's box-corner include
  // pre-test and squared-domain flat-buffer resolve carry most decisions:
  // the default BQS and FBQS must take exactly the decisions of the
  // reference kernel and (BQS) of the seed's literal brute-force rescan on
  // the fleet's random-walk vehicles and on the adversarial drift stream.
  // The BQS decision mix is compared with the hull from the first point,
  // where the fast kernel follows the reference's bounds-first order.
  std::vector<Trajectory> streams;
  for (auto& [device, stream] : BuildFleetDataset(6, 0.1).devices) {
    streams.push_back(std::move(stream));
  }
  streams.push_back(BuildAdversarialDriftDataset(0.05).stream);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (double epsilon : {5.0, 10.0}) {
      SCOPED_TRACE(::testing::Message() << "stream " << s << " eps "
                                        << epsilon);
      BqsOptions options;
      options.epsilon = epsilon;

      BqsCompressor bqs(options);
      BqsCompressor bqs_hull_first(options, kHullFirst);
      BqsCompressor bqs_reference(options, kReferenceKernel);
      BqsCompressor bqs_brute(options, kSeed);
      const CompressedTrajectory out = CompressAll(bqs, streams[s]);
      ExpectByteIdenticalKeys(out, CompressAll(bqs_reference, streams[s]),
                              "BQS vs reference kernel");
      ExpectByteIdenticalKeys(out, CompressAll(bqs_brute, streams[s]),
                              "BQS vs seed brute force");
      ExpectByteIdenticalKeys(out, CompressAll(bqs_hull_first, streams[s]),
                              "BQS vs hull from the first point");
      ExpectSameDecisions(bqs_hull_first.stats(), bqs_reference.stats());
      ExpectSameDecisions(bqs_hull_first.stats(), bqs_brute.stats());

      FbqsCompressor fbqs(options);
      FbqsCompressor fbqs_reference(options, kReferenceKernel);
      ExpectByteIdenticalKeys(CompressAll(fbqs, streams[s]),
                              CompressAll(fbqs_reference, streams[s]),
                              "FBQS vs reference kernel");
      ExpectSameDecisions(fbqs.stats(), fbqs_reference.stats());
    }
  }
}

TEST(BqsCompressorTest, SquaredResolveFallsBackOnTheGuardBand) {
  // A buffered point exactly epsilon from the final chord: the squared
  // flat-buffer verdict lands in its guard band (returns 0) and the
  // decision falls back to the distance rescan, on both sides of the
  // threshold. Geometry (no rotation, origin at the first fix): the chord
  // to (60, 80) has length 100, so |cross| / 100 is exact and (50, 50)
  // sits at distance 1000 / 100 = 10. The other buffered points keep the
  // quadrant bounds inconclusive at the final fix (lower 9, upper 18).
  Trajectory stream;
  for (const Vec2 p : {Vec2{0.0, 0.0}, Vec2{50.0, 50.0}, Vec2{30.0, 25.0},
                       Vec2{60.0, 70.0}, Vec2{60.0, 80.0}}) {
    stream.push_back(TrackPoint{p, static_cast<double>(stream.size()), {}});
  }
  for (const double epsilon : {10.0, std::nextafter(10.0, 0.0)}) {
    SCOPED_TRACE(::testing::Message() << "eps " << epsilon);
    BqsOptions options;
    options.epsilon = epsilon;
    BqsCompressor bqs(options, kNoRotation);
    BqsCompressor brute(options, {.reference_kernel = true,
                                  .hull_migration = SIZE_MAX,
                                  .data_centric_rotation = false});
    // Same fast kernel, but the hull from the first point means the squared
    // flat-buffer resolve never runs: any extra fallback in `bqs` is the
    // guard band's.
    BqsCompressor hull_first(
        options, {.hull_migration = 1, .data_centric_rotation = false});
    const CompressedTrajectory out = CompressAll(bqs, stream);
    ExpectByteIdenticalKeys(out, CompressAll(brute, stream),
                            "default vs seed brute force");
    ExpectByteIdenticalKeys(out, CompressAll(hull_first, stream),
                            "default vs hull from the first point");
    ExpectSameDecisions(bqs.stats(), brute.stats());
    ExpectSameDecisions(bqs.stats(), hull_first.stats());
    // The final fix is resolved exactly: included at eps = 10, split just
    // below it.
    EXPECT_EQ(out.size(), epsilon == 10.0 ? 2u : 3u);
    EXPECT_EQ(bqs.stats().exact_computations, 2u);
    EXPECT_GT(bqs.stats().kernel_fallbacks,
              hull_first.stats().kernel_fallbacks);
  }
}

TEST(BqsCompressorTest, ScanFirstTradesBoundDecisionsForExactScans) {
  // The default kernel decides short segments by the exact scan (the scan
  // phase, counted in warmup_checks) and settles later flat-phase box
  // pre-test misses with it: the same keys and segments as the paper's
  // bounds-first order (the hull from the first point), with some
  // bound-decided points moved to scans and none moved the other way.
  std::vector<Trajectory> streams;
  for (auto& [device, stream] : BuildFleetDataset(4, 0.1).devices) {
    streams.push_back(std::move(stream));
  }
  streams.push_back(SmoothWalk(191, 3000));
  streams.push_back(JaggedWalk(192, 3000));
  uint64_t moved = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (double epsilon : {5.0, 10.0}) {
      SCOPED_TRACE(::testing::Message() << "stream " << s << " eps "
                                        << epsilon);
      BqsOptions options;
      options.epsilon = epsilon;
      BqsCompressor scan_first(options);
      BqsCompressor bounds_first(options, kHullFirst);
      ExpectByteIdenticalKeys(CompressAll(scan_first, streams[s]),
                              CompressAll(bounds_first, streams[s]),
                              "scan-first vs bounds-first");
      const DecisionStats& a = scan_first.stats();
      const DecisionStats& b = bounds_first.stats();
      EXPECT_EQ(a.segments, b.segments);
      const auto scans = [](const DecisionStats& st) {
        return st.exact_computations + st.warmup_checks;
      };
      EXPECT_GE(scans(a), scans(b));
      EXPECT_LE(a.upper_bound_includes, b.upper_bound_includes);
      EXPECT_LE(a.lower_bound_splits, b.lower_bound_splits);
      moved += scans(a) - scans(b);
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(BqsCompressorTest, ScanFirstGuardBandFallsThroughToTheBounds) {
  // After a box pre-test miss the flat-buffer scan lands in its guard
  // band: the buffered (16, 38) sits exactly epsilon from the final chord
  // to (30, 40) (|cross| = 500, squared 250000 against eps^2 * |end|^2 =
  // 100 * 2500). The decision must then come from the bounds-first path:
  // the tight composition lands in its band too, and the reference
  // composition decides. At eps = 10 it is inconclusive; just below 10 its
  // lower bound lies within the guard band of eps, so it decides nothing
  // either. Both times the exact resolve settles the end (an include at
  // 10, a split just below) and reuses the scan's band verdict rather than
  // scanning the four buffered points again. Either way the end costs two
  // fallbacks (the scan's band, the composition's band) and one pass over
  // the buffer.
  Trajectory stream;
  for (const Vec2 p : {Vec2{0.0, 0.0}, Vec2{14.0, 14.0}, Vec2{16.0, 38.0},
                       Vec2{12.0, 29.0}, Vec2{13.0, 24.0}, Vec2{30.0, 40.0}}) {
    stream.push_back(TrackPoint{p, static_cast<double>(stream.size()), {}});
  }
  for (const double epsilon : {10.0, std::nextafter(10.0, 0.0)}) {
    SCOPED_TRACE(::testing::Message() << "eps " << epsilon);
    BqsOptions options;
    options.epsilon = epsilon;
    BqsCompressor scan_first(options, kNoRotation);
    BqsCompressor reference(
        options, {.reference_kernel = true, .data_centric_rotation = false});
    const CompressedTrajectory out = CompressAll(scan_first, stream);
    ExpectByteIdenticalKeys(out, CompressAll(reference, stream),
                            "scan-first vs reference kernel");
    ExpectSameDecisions(scan_first.stats(), reference.stats());
    EXPECT_EQ(scan_first.stats().exact_computations, 1u);
    EXPECT_EQ(scan_first.stats().kernel_fallbacks, 2u);
    EXPECT_EQ(scan_first.stats().exact_points_scanned, 4u);
  }
}

TEST(BqsCompressorTest, StraightRunComposesNoSqrt) {
  // A perfectly straight run rotates its ends into the near-axis sliver.
  // The box pre-test and (BQS) the flat-buffer scan settle those ends
  // without classifying them, so the sliver's reference composition, and
  // its square roots, never run.
  Trajectory stream;
  for (int i = 0; i < 200; ++i) {
    stream.push_back(TrackPoint{{3.0 * i, 4.0 * i}, double(i), {}});
  }
  BqsOptions options;
  options.epsilon = 10.0;
  const ops::Snapshot before = ops::Read();
  BqsCompressor bqs(options);
  FbqsCompressor fbqs(options);
  const CompressedTrajectory bqs_out = CompressAll(bqs, stream);
  const CompressedTrajectory fbqs_out = CompressAll(fbqs, stream);
  EXPECT_EQ(ops::Read().Delta(before).sqrt_calls, 0u);

  BqsCompressor bqs_reference(options, kReferenceKernel);
  FbqsCompressor fbqs_reference(options, kReferenceKernel);
  ExpectByteIdenticalKeys(bqs_out, CompressAll(bqs_reference, stream),
                          "BQS straight run");
  ExpectByteIdenticalKeys(fbqs_out, CompressAll(fbqs_reference, stream),
                          "FBQS straight run");
}

// Segments of exactly `buffered` out-of-epsilon points: straight runs of
// 1.5 * epsilon steps with a +-0.3 * epsilon lateral zigzag, each turned
// 100 degrees at its last point, which ends the segment there. Trivial
// points (within epsilon of the segment start) open the first segment and
// follow every segment's first buffered point; under the line metric more
// sit on the run's axis before its last few points, where they are
// includable ends. (Under
// the segment metric a trivial end behind several buffered points always
// splits; a later segment cannot open with one, since the old segment
// takes any point near its end.) `lead_offset` moves the first three
// buffered points of the first run off its axis (in epsilons).
//
// A non-zero `band_offset` runs along the axes instead, turning by exactly
// 90 degrees, with the zigzag on one side only and each run's second
// buffered point band_offset * epsilon off its axis. At (1 - 2e-13) every
// on-axis end (the trivial points on the axis and each run's last point)
// keeps that point within epsilon by less than the squared verdict's
// 1e-12 guard band, so the sqrt-bearing rescan decides (an include); the
// margin is far above rounding, so every kernel, bound-based or not,
// includes these ends. At exactly 1 (integer coordinates at epsilon 10)
// the deviation is a tie with epsilon: the exact verdict includes it, and
// a bound that lands within the guard band of epsilon must defer to that
// verdict instead of splitting.
Trajectory ScanBoundaryStream(std::size_t buffered, DistanceMetric metric,
                              int segments, double eps,
                              double lead_offset = 0.0,
                              double band_offset = 0.0) {
  const bool band_ends = band_offset != 0.0;
  Trajectory stream;
  const auto add = [&stream](Vec2 p) {
    stream.push_back(TrackPoint{p, static_cast<double>(stream.size()), {}});
  };
  Vec2 start{0.0, 0.0};
  add(start);
  double heading = 0.3;
  Vec2 dir = band_ends ? Vec2{1.0, 0.0}
                       : Vec2{std::cos(heading), std::sin(heading)};
  for (int s = 0; s < segments; ++s) {
    const Vec2 normal{-dir.y, dir.x};
    if (s == 0) {
      add(start + 0.4 * eps * normal);
      add(start + 0.2 * eps * dir);
    }
    Vec2 last = start;
    for (std::size_t j = 1; j <= buffered; ++j) {
      double zig = j == buffered ? 0.0 : (j % 2 == 0 ? 0.3 : -0.3);
      if (band_ends && j < buffered) {
        zig = j == 2 ? band_offset : (j % 2 == 0 ? 0.0 : 0.3);
      }
      if (s == 0 && j <= 3 && lead_offset != 0.0) zig = lead_offset;
      last = start + (1.5 * eps * static_cast<double>(j)) * dir +
             (zig * eps) * normal;
      add(last);
      if (j == 1) add(start + 0.9 * eps * dir);
      if (metric == DistanceMetric::kPointToLine && j % 7 == 3 &&
          j + 3 < buffered) {
        add(start + 0.5 * eps * dir);
      }
    }
    start = last;
    if (band_ends) {
      dir = Vec2{-dir.y, dir.x};  // exactly 90 degrees
    } else {
      heading += 1.745329;  // ~100 degrees
      dir = Vec2{std::cos(heading), std::sin(heading)};
    }
  }
  return stream;
}

void ExpectSameStats(const DecisionStats& a, const DecisionStats& b) {
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.trivial_includes, b.trivial_includes);
  EXPECT_EQ(a.warmup_checks, b.warmup_checks);
  EXPECT_EQ(a.upper_bound_includes, b.upper_bound_includes);
  EXPECT_EQ(a.lower_bound_splits, b.lower_bound_splits);
  EXPECT_EQ(a.exact_computations, b.exact_computations);
  EXPECT_EQ(a.exact_includes, b.exact_includes);
  EXPECT_EQ(a.exact_splits, b.exact_splits);
  EXPECT_EQ(a.uncertain_splits, b.uncertain_splits);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.exact_points_scanned, b.exact_points_scanned);
  EXPECT_EQ(a.peak_exact_state, b.peak_exact_state);
  EXPECT_EQ(a.kernel_fallbacks, b.kernel_fallbacks);
}

TEST(BqsCompressorTest, ScanPhaseBoundaryIsByteIdenticalToTheOracles) {
  // Segments that end one point before, at and after the scan phase's
  // kScanPhasePoints, with trivial fixes interleaved, and (line metric)
  // two variants whose on-axis ends land in the verdict's guard band, one
  // of them at a deviation of exactly epsilon: on
  // every SIMD tier the default kernel keeps the reference kernel's keys
  // (and those of the hull from the first point, which never runs the
  // scan phase), the batch loop keeps every counter of point-by-point
  // pushes, and the hull from the first point keeps the reference's
  // decision mix. Under the line metric no bound is ever composed below
  // kScanPhasePoints; from it on, exactly the points after the handover
  // are bound-assessed. The segment metric runs no scan phase, so there
  // the default kernel keeps the reference's decision mix.
  constexpr std::size_t kK = internal::kScanPhasePoints;
  constexpr int kSegments = 5;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kSse2, simd::Tier::kAvx2}) {
    const simd::ScopedForceTier force(tier);
    for (const DistanceMetric metric :
         {DistanceMetric::kPointToLine, DistanceMetric::kPointToSegment}) {
      for (const double band_offset : {0.0, 1.0 - 2e-13, 1.0}) {
        const bool band_ends = band_offset != 0.0;
        if (band_ends && metric != DistanceMetric::kPointToLine) continue;
        for (const std::size_t buffered : {kK - 1, kK, kK + 1}) {
          for (const double eps : {4.0, 10.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "tier " << simd::TierName(tier) << " metric "
                         << static_cast<int>(metric) << " band "
                         << band_offset << " buffered " << buffered << " eps "
                         << eps);
            const Trajectory stream = ScanBoundaryStream(
                buffered, metric, kSegments, eps, 0.0, band_offset);
            BqsOptions options;
            options.epsilon = eps;
            options.metric = metric;
            BqsCompressor bqs(options);
            BqsCompressor reference(options, kSeed);
            BqsCompressor hull_first(options, kHullFirst);
            const CompressedTrajectory out = CompressAll(bqs, stream);
            ExpectByteIdenticalKeys(out, CompressAll(reference, stream),
                                    "default vs reference kernel");
            ExpectByteIdenticalKeys(out, CompressAll(hull_first, stream),
                                    "default vs hull from the first point");
            ExpectSameDecisions(hull_first.stats(), reference.stats());
            EXPECT_EQ(hull_first.stats().warmup_checks,
                      reference.stats().warmup_checks);
            EXPECT_EQ(hull_first.stats().trivial_includes,
                      reference.stats().trivial_includes);

            // Point-by-point pushes count exactly as the batch loop.
            BqsCompressor one_by_one(options);
            CompressedTrajectory single;
            for (const TrackPoint& pt : stream) {
              one_by_one.Push(pt, &single.keys);
            }
            one_by_one.Finish(&single.keys);
            ExpectByteIdenticalKeys(out, single, "batch vs point by point");
            ExpectSameStats(one_by_one.stats(), bqs.stats());

            // Every segment ends at its run's last point.
            ASSERT_EQ(out.size(), static_cast<std::size_t>(kSegments) + 1);
            EXPECT_EQ(bqs.stats().segments,
                      static_cast<uint64_t>(kSegments - 1));
            const DecisionStats& st = bqs.stats();
            if (metric == DistanceMetric::kPointToSegment) {
              ExpectSameDecisions(st, reference.stats());
              EXPECT_EQ(st.warmup_checks, reference.stats().warmup_checks);
              continue;
            }
            // The band ends were settled by the rescan.
            if (band_ends) {
              EXPECT_GT(st.kernel_fallbacks, 0u);
            }
            const uint64_t bound_assessed = st.upper_bound_includes +
                                            st.lower_bound_splits +
                                            st.exact_computations;
            // The buffered points after the K-th of each segment, and the
            // turn that ends each closed segment.
            EXPECT_EQ(bound_assessed,
                      buffered < kK
                          ? 0u
                          : kSegments * (buffered - kK) + kSegments - 1);
          }
        }
      }
    }
  }
}

TEST(BqsCompressorTest, ScanPhaseHandsOverTheShortWarmUpsQuadrants) {
  // At kScanPhasePoints buffered points the scan phase fits the rotation
  // and replays the buffer into the quadrants: the result must be the
  // rotation and quadrants an 8-point warm-up builds by then (a migration
  // point at kScanPhasePoints keeps that warm-up), so every later decision
  // and counter matches. A lateral excursion at the start keeps the first
  // buffered points off the run's axis, so a replay that skipped them
  // would leave different boxes. (The scan phase runs under the line
  // metric only.)
  constexpr std::size_t kK = internal::kScanPhasePoints;
  const Trajectory stream = ScanBoundaryStream(
      kK + 1, DistanceMetric::kPointToLine, 1, 10.0, 0.6);
  BqsOptions options;
  options.epsilon = 10.0;
  BqsCompressor bqs(options);
  BqsCompressor short_warmup(options, {.hull_migration = kK});
  std::vector<KeyPoint> keys;
  std::vector<KeyPoint> short_keys;
  for (const TrackPoint& pt : stream) {
    bqs.Push(pt, &keys);
    short_warmup.Push(pt, &short_keys);
  }
  ASSERT_EQ(keys.size(), 1u);  // one segment, still open
  ASSERT_TRUE(bqs.engine().rotation_established());
  EXPECT_EQ(bqs.engine().rotation_angle(),
            short_warmup.engine().rotation_angle());
  for (int q = 0; q < 4; ++q) {
    const QuadrantBound& a = bqs.engine().quadrant(q);
    const QuadrantBound& b = short_warmup.engine().quadrant(q);
    EXPECT_EQ(a.count(), b.count()) << "quadrant " << q;
    if (a.empty() || b.empty()) continue;
    EXPECT_TRUE(a.box().min() == b.box().min()) << "quadrant " << q;
    EXPECT_TRUE(a.box().max() == b.box().max()) << "quadrant " << q;
  }
}

TEST(BqsCompressorTest, InvalidOptionsAreReported) {
  BqsOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.epsilon = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.epsilon = 5.0;
  EXPECT_TRUE(options.Validate().ok());
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0}) {
    options.epsilon = bad;
    EXPECT_FALSE(options.Validate().ok()) << "epsilon " << bad;
  }
}

}  // namespace
}  // namespace bqs
