// Contracts the service layer's session recycling stands on:
//  - enum exhaustiveness: AlgorithmId, AlgorithmName, IsStreaming and
//    MakeStreamCompressor stay in sync (no value silently falls through),
//  - Reset() equivalence: a reused compressor is byte-identical to a fresh
//    one for every streaming algorithm (FleetEngine pools compressors and
//    Reset()s them between sessions),
//  - the sink emission path mirrors the vector path exactly.
#include <set>
#include <vector>

#include "eval/algorithms.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "trajectory/compressor.h"

namespace bqs {
namespace {

// Forces a conscious update of kAllAlgorithms (and this suite) whenever the
// enum grows.
static_assert(kAlgorithmCount == 7,
              "AlgorithmId changed: update kAllAlgorithms, AlgorithmName, "
              "IsStreaming, MakeStreamCompressor and this test together");

AlgorithmConfig ConfigFor(AlgorithmId id) {
  AlgorithmConfig config;
  config.id = id;
  config.epsilon = 8.0;
  return config;
}

TEST(AlgorithmEnumTest, CanonicalListCoversEveryValueInOrder) {
  for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
    EXPECT_EQ(kAllAlgorithms[i], static_cast<AlgorithmId>(i))
        << "kAllAlgorithms must list enum values in declaration order";
  }
}

TEST(AlgorithmEnumTest, EveryValueHasAUniqueNonEmptyName) {
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
    const std::string_view name = AlgorithmName(static_cast<AlgorithmId>(i));
    EXPECT_FALSE(name.empty()) << "enum value " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate algorithm name: " << name;
  }
}

TEST(AlgorithmEnumTest, MakeStreamCompressorMatchesIsStreaming) {
  for (const AlgorithmId id : kAllAlgorithms) {
    auto compressor = MakeStreamCompressor(ConfigFor(id));
    EXPECT_EQ(compressor != nullptr, IsStreaming(id))
        << AlgorithmName(id)
        << ": MakeStreamCompressor and IsStreaming disagree";
    if (compressor != nullptr) {
      EXPECT_EQ(compressor->name(), AlgorithmName(id))
          << "compressor name() diverges from AlgorithmName";
    }
  }
}

TEST(AlgorithmEnumTest, CompressorFactoryMintsConfiguredAlgorithm) {
  for (const AlgorithmId id : kAllAlgorithms) {
    CompressorFactory factory(ConfigFor(id));
    EXPECT_EQ(factory.streaming(), IsStreaming(id));
    auto compressor = factory.Make();
    ASSERT_EQ(compressor != nullptr, factory.streaming());
    if (compressor != nullptr) {
      EXPECT_EQ(compressor->name(), AlgorithmName(id));
    }
  }
}

// --- Reset() equivalence ---------------------------------------------------

std::vector<AlgorithmId> StreamingAlgorithms() {
  std::vector<AlgorithmId> out;
  for (const AlgorithmId id : kAllAlgorithms) {
    if (IsStreaming(id)) out.push_back(id);
  }
  return out;
}

TEST(ResetEquivalenceTest, ReusedCompressorMatchesFreshOne) {
  const Trajectory first = testing_util::JaggedWalk(91, 1500);
  const Trajectory second = testing_util::SmoothWalk(92, 1500);
  for (const AlgorithmId id : StreamingAlgorithms()) {
    auto fresh = MakeStreamCompressor(ConfigFor(id));
    auto reused = MakeStreamCompressor(ConfigFor(id));
    // Dirty the reused instance with a full run, then recycle it.
    const CompressedTrajectory scratch = CompressAll(*reused, first);
    ASSERT_FALSE(scratch.empty());
    const CompressedTrajectory expected = CompressAll(*fresh, second);
    const CompressedTrajectory recycled = CompressAll(*reused, second);
    EXPECT_EQ(recycled.keys, expected.keys)
        << AlgorithmName(id) << ": Reset() does not restore fresh state";
  }
}

TEST(ResetEquivalenceTest, ResetMidStreamDiscardsAllState) {
  const Trajectory first = testing_util::VonMisesWalk(93, 1200, 2.0);
  const Trajectory second = testing_util::JaggedWalk(94, 1200);
  for (const AlgorithmId id : StreamingAlgorithms()) {
    auto fresh = MakeStreamCompressor(ConfigFor(id));
    auto reused = MakeStreamCompressor(ConfigFor(id));
    // Abandon a half-ingested stream (open segment, warm buffers) without
    // Finish() — the harshest recycling shape.
    std::vector<KeyPoint> discard;
    reused->PushBatch(
        std::span<const TrackPoint>(first.data(), first.size() / 2),
        &discard);
    const CompressedTrajectory expected = CompressAll(*fresh, second);
    const CompressedTrajectory recycled = CompressAll(*reused, second);
    EXPECT_EQ(recycled.keys, expected.keys)
        << AlgorithmName(id) << ": mid-stream Reset() leaks state";
  }
}

// --- Emission ----------------------------------------------------------------

TEST(EmissionTest, SinglePushesThenBatchMatchCompressAll) {
  const Trajectory stream = testing_util::JaggedWalk(95, 2000);
  for (const AlgorithmId id : StreamingAlgorithms()) {
    auto reference = MakeStreamCompressor(ConfigFor(id));
    const CompressedTrajectory expected = CompressAll(*reference, stream);

    auto mixed = MakeStreamCompressor(ConfigFor(id));
    mixed->Reset();
    std::vector<KeyPoint> got;
    // Single-point pushes for the first half, one batch for the rest.
    const std::size_t half = stream.size() / 2;
    for (std::size_t i = 0; i < half; ++i) mixed->Push(stream[i], &got);
    mixed->PushBatch(std::span<const TrackPoint>(stream.data() + half,
                                                 stream.size() - half),
                     &got);
    mixed->Finish(&got);
    EXPECT_EQ(got, expected.keys)
        << AlgorithmName(id) << ": mixed pushes diverge from CompressAll";
  }
}

TEST(EmissionTest, CompressedSizeHintIsPositiveAndSublinear) {
  EXPECT_GE(CompressedSizeHint(0), 2u);
  EXPECT_GE(CompressedSizeHint(1), 2u);
  EXPECT_EQ(CompressedSizeHint(80), 12u);
  EXPECT_LT(CompressedSizeHint(100000), 100000u / 4);
}

}  // namespace
}  // namespace bqs
