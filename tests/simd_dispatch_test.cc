// Runtime SIMD dispatch (common/simd.h): tier detection against the
// compiler's own CPUID probe, the BQS_FORCE_SCALAR environment override,
// the ForceTier test hook, scratch alignment, and — the load-bearing
// guarantee — byte-identical compressor output across every tier the
// host can run.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "core/bqs_compressor.h"
#include "core/fbqs_compressor.h"
#include "core/options.h"
#include "core/segment_state.h"
#include "test_util.h"
#include "trajectory/compressor.h"

namespace bqs {
namespace {

// The suite manipulates process-global dispatch state (the forced tier
// and the BQS_FORCE_SCALAR variable), so every test restores both.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("BQS_FORCE_SCALAR");
    had_env_ = env != nullptr;
    if (had_env_) saved_env_ = env;
    unsetenv("BQS_FORCE_SCALAR");
    simd::ClearForcedTier();
  }
  void TearDown() override {
    if (had_env_) {
      setenv("BQS_FORCE_SCALAR", saved_env_.c_str(), 1);
    } else {
      unsetenv("BQS_FORCE_SCALAR");
    }
    simd::ClearForcedTier();
  }

 private:
  bool had_env_ = false;
  std::string saved_env_;
};

TEST_F(SimdDispatchTest, DetectedTierMatchesCpuid) {
#if defined(__x86_64__) || defined(_M_X64)
  // SSE2 is the x86-64 baseline, so the floor is kSse2; AVX2 iff the CPU
  // reports it. This re-derives DetectOnce() through the same builtin the
  // implementation uses — the test's value is catching a future edit that
  // detects one feature and dispatches another.
#if defined(__GNUC__) || defined(__clang__)
  const simd::Tier expected = __builtin_cpu_supports("avx2")
                                  ? simd::Tier::kAvx2
                                  : simd::Tier::kSse2;
  EXPECT_EQ(simd::DetectedTier(), expected);
#endif
  EXPECT_GE(static_cast<int>(simd::DetectedTier()),
            static_cast<int>(simd::Tier::kSse2));
#else
  EXPECT_EQ(simd::DetectedTier(), simd::Tier::kScalar);
#endif
}

TEST_F(SimdDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kSse2), "sse2");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
}

TEST_F(SimdDispatchTest, ForceScalarEnvDemotesActiveTier) {
  setenv("BQS_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  // "0" is the documented off value; anything else turns the knob on.
  setenv("BQS_FORCE_SCALAR", "0", 1);
  EXPECT_EQ(simd::ActiveTier(), simd::DetectedTier());
  setenv("BQS_FORCE_SCALAR", "yes", 1);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  unsetenv("BQS_FORCE_SCALAR");
  EXPECT_EQ(simd::ActiveTier(), simd::DetectedTier());
}

TEST_F(SimdDispatchTest, ForcedTierIsClampedToDetected) {
  simd::ForceTier(simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  // Forcing above the CPU's capability clamps instead of dispatching an
  // illegal instruction set.
  simd::ForceTier(simd::Tier::kAvx2);
  EXPECT_EQ(simd::ActiveTier(),
            std::min(simd::Tier::kAvx2, simd::DetectedTier()));
  simd::ClearForcedTier();
  EXPECT_EQ(simd::ActiveTier(), simd::DetectedTier());
}

TEST_F(SimdDispatchTest, ForcedTierOutranksEnvKnob) {
  // The fuzzer's cross-tier sweep relies on this precedence: under a
  // forced-scalar CI job the sweep must still reach the hardware tiers.
  setenv("BQS_FORCE_SCALAR", "1", 1);
  simd::ForceTier(simd::DetectedTier());
  EXPECT_EQ(simd::ActiveTier(), simd::DetectedTier());
}

TEST_F(SimdDispatchTest, KernelTableMatchesTier) {
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kSse2, simd::Tier::kAvx2}) {
    const simd::KernelTable& table = simd::KernelsFor(tier);
    EXPECT_LE(static_cast<int>(table.tier),
              static_cast<int>(simd::DetectedTier()));
    EXPECT_NE(table.prepare_rotated, nullptr);
    EXPECT_NE(table.screen_lanes, nullptr);
    EXPECT_NE(table.prepare_trivial, nullptr);
    EXPECT_NE(table.max_abs_cross, nullptr);
    switch (table.tier) {
      case simd::Tier::kScalar:
        EXPECT_EQ(table.lanes, 1u);
        break;
      case simd::Tier::kSse2:
        EXPECT_EQ(table.lanes, 2u);
        break;
      case simd::Tier::kAvx2:
        EXPECT_EQ(table.lanes, 4u);
        break;
    }
  }
}

TEST_F(SimdDispatchTest, MaxAbsCrossIsBitwiseEqualOnEveryTier) {
  // The flat-buffer scan every scan-phase verdict runs: each tier's
  // reduction over the start-relative arrays must return the scalar
  // table's bits for every length, the scalar tails included. Magnitudes span ~1e-3..1e6 with both
  // signs and some exact zeros, and the arrays start at an odd offset so
  // no load is aligned.
  Rng rng(2551);
  constexpr std::size_t kMax = 256;
  std::vector<double> xs(kMax + 1);
  std::vector<double> ys(kMax + 1);
  for (std::size_t i = 0; i <= kMax; ++i) {
    const double scale = std::pow(10.0, rng.Uniform(-3.0, 6.0));
    xs[i] = i % 17 == 5 ? 0.0 : rng.Uniform(-1.0, 1.0) * scale;
    ys[i] = i % 13 == 7 ? -0.0 : rng.Uniform(-1.0, 1.0) * scale;
  }
  const simd::KernelTable& scalar = simd::KernelsFor(simd::Tier::kScalar);
  for (const simd::Tier tier : {simd::Tier::kSse2, simd::Tier::kAvx2}) {
    const simd::KernelTable& table = simd::KernelsFor(tier);
    for (std::size_t n = 0; n <= kMax; ++n) {
      for (const Vec2 d : {Vec2{3.5, -1.25}, Vec2{-1e4, 7e3}, Vec2{0.0, 2.0}}) {
        const double want =
            scalar.max_abs_cross(xs.data() + 1, ys.data() + 1, n, d.x, d.y);
        const double got =
            table.max_abs_cross(xs.data() + 1, ys.data() + 1, n, d.x, d.y);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << simd::TierName(table.tier) << " n " << n << " d " << d.x
            << "," << d.y;
      }
    }
  }
  EXPECT_EQ(scalar.max_abs_cross(xs.data(), ys.data(), 0, 1.0, 1.0), 0.0);
}

TEST_F(SimdDispatchTest, EngineSnapshotsTierAtConstruction) {
  simd::ForceTier(simd::Tier::kScalar);
  BqsCompressor scalar_bqs;
  simd::ClearForcedTier();
  BqsCompressor native_bqs;
  EXPECT_EQ(scalar_bqs.engine().batch_tier(), simd::Tier::kScalar);
  EXPECT_EQ(native_bqs.engine().batch_tier(), simd::DetectedTier());
}

TEST_F(SimdDispatchTest, BatchScratchIsVectorAligned) {
  using Scratch = internal::SegmentEngine::BatchScratch;
  static_assert(alignof(Scratch) >= 32,
                "batch scratch must satisfy full-width AVX2 loads");
  static_assert(Scratch::kCapacity % 4 == 0,
                "capacity must hold whole 4-wide groups");

  // Runtime check on the lazily-allocated instance the engine actually
  // uses: push enough points to materialize it.
  BqsCompressor bqs;
  const Trajectory walk = testing_util::SmoothWalk(17, 256);
  std::vector<KeyPoint> out;
  bqs.PushBatch(walk, &out);
  const Scratch* s = bqs.engine().batch_scratch();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s) % 32, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s->rx) % 32, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s->ry) % 32, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s->nsq) % 32, 0u);
}

// A parked device: fixes jittering within 3 m of an anchor (well inside
// the default 10 m epsilon), with an escape jump every 257 fixes. The
// stream opens parked, so its first segment runs on the fused
// pre-rotation trivial path across chunk and lane boundaries.
Trajectory ParkedRun(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Trajectory out;
  Vec2 anchor{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 257 == 256) {
      anchor += Vec2{rng.Uniform(20.0, 60.0), rng.Uniform(-60.0, 60.0)};
    }
    const Vec2 jitter{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    out.push_back(TrackPoint{anchor + jitter, static_cast<double>(i), {}});
  }
  return out;
}

// The core guarantee the dispatch layer sells: identical key streams no
// matter which tier ran the batch screen, across stream shapes chosen to
// exercise the fused trivial path, the warm-up screen, and the
// established-rotation quadrant screen.
TEST_F(SimdDispatchTest, OutputByteIdenticalAcrossTiers) {
  struct StreamCase {
    const char* name;
    Trajectory stream;
  };
  const StreamCase streams[] = {
      {"smooth", testing_util::SmoothWalk(5, 3000)},
      {"jagged", testing_util::JaggedWalk(9, 3000)},
      {"parked", ParkedRun(13, 3000)},
  };
  BqsOptions options_cube[2];
  options_cube[0] = {};
  options_cube[1].metric = DistanceMetric::kPointToSegment;

  for (const StreamCase& sc : streams) {
    for (const BqsOptions& options : options_cube) {
      simd::ForceTier(simd::Tier::kScalar);
      BqsCompressor scalar_ref(options);
      const CompressedTrajectory expected =
          CompressAll(scalar_ref, sc.stream);

      for (const simd::Tier tier :
           {simd::Tier::kSse2, simd::Tier::kAvx2}) {
        simd::ForceTier(tier);
        BqsCompressor forced(options);
        const CompressedTrajectory got = CompressAll(forced, sc.stream);
        ASSERT_EQ(got.keys.size(), expected.keys.size())
            << sc.name << " under " << simd::TierName(tier);
        for (std::size_t i = 0; i < got.keys.size(); ++i) {
          ASSERT_TRUE(got.keys[i] == expected.keys[i])
              << sc.name << " under " << simd::TierName(tier)
              << " diverged at key " << i;
        }
      }
      simd::ClearForcedTier();
    }
  }
}

TEST_F(SimdDispatchTest, FbqsOutputByteIdenticalAcrossTiers) {
  const Trajectory stream = testing_util::JaggedWalk(23, 2000);
  simd::ForceTier(simd::Tier::kScalar);
  FbqsCompressor scalar_ref;
  const CompressedTrajectory expected = CompressAll(scalar_ref, stream);
  for (const simd::Tier tier : {simd::Tier::kSse2, simd::Tier::kAvx2}) {
    simd::ForceTier(tier);
    FbqsCompressor forced;
    const CompressedTrajectory got = CompressAll(forced, stream);
    ASSERT_EQ(got.keys.size(), expected.keys.size());
    for (std::size_t i = 0; i < got.keys.size(); ++i) {
      ASSERT_TRUE(got.keys[i] == expected.keys[i])
          << "diverged at key " << i << " under " << simd::TierName(tier);
    }
  }
}

}  // namespace
}  // namespace bqs
