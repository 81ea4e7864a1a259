// Uniform façade over every compressor in the library so benches and
// examples can sweep algorithm x dataset x epsilon without bespoke glue.
#ifndef BQS_EVAL_ALGORITHMS_H_
#define BQS_EVAL_ALGORITHMS_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <string_view>

#include "core/decision_stats.h"
#include "geometry/line2.h"
#include "trajectory/compressor.h"

namespace bqs {

/// Every algorithm the evaluation exercises.
enum class AlgorithmId {
  kBqs,      ///< Paper Algorithm 1 (exact fallback).
  kFbqs,     ///< Fast BQS, O(1)/point.
  kBdp,      ///< Buffered Douglas-Peucker.
  kBgd,      ///< Buffered Greedy Deviation (sliding window).
  kDp,       ///< Offline Douglas-Peucker.
  kDr,       ///< Dead Reckoning.
  kSquishE,  ///< SQUISH-E(epsilon) (SED metric; extension baseline).
};

/// Canonical list of every AlgorithmId value, in declaration order. Sweeps
/// and the enum-exhaustiveness test iterate this; it (and kAlgorithmCount)
/// must grow with the enum.
inline constexpr AlgorithmId kAllAlgorithms[] = {
    AlgorithmId::kBqs, AlgorithmId::kFbqs, AlgorithmId::kBdp,
    AlgorithmId::kBgd, AlgorithmId::kDp,   AlgorithmId::kDr,
    AlgorithmId::kSquishE,
};
inline constexpr std::size_t kAlgorithmCount = std::size(kAllAlgorithms);

/// Stable display name ("BQS", "FBQS", ...). Empty for out-of-range values
/// (never for a real enumerator; the exhaustiveness test enforces this).
std::string_view AlgorithmName(AlgorithmId id);

/// True when the id has a streaming (push-based) implementation, i.e. when
/// MakeStreamCompressor returns non-null for it.
bool IsStreaming(AlgorithmId id);

/// One concrete algorithm instantiation.
struct AlgorithmConfig {
  AlgorithmId id = AlgorithmId::kFbqs;
  double epsilon = 10.0;
  DistanceMetric metric = DistanceMetric::kPointToLine;
  /// Buffer size for BDP/BGD (paper default 32; 0 = unbounded BGD).
  std::size_t buffer_size = 32;
};

/// Result of one compression run.
struct RunOutput {
  CompressedTrajectory compressed;
  double runtime_ms = 0.0;
  DecisionStats stats;     ///< Meaningful for the BQS family only.
  bool has_stats = false;  ///< True when `stats` is populated.
};

/// Runs the configured algorithm over the stream, timing compression only
/// (no dataset generation, no verification).
RunOutput RunAlgorithm(const AlgorithmConfig& config,
                       std::span<const TrackPoint> points);

/// Builds a fresh streaming compressor for online algorithms; nullptr for
/// offline ones (DP, SQUISH-E).
std::unique_ptr<StreamCompressor> MakeStreamCompressor(
    const AlgorithmConfig& config);

/// A bound AlgorithmConfig that mints identically-configured compressors on
/// demand — the service layer holds one and calls Make() once per device
/// session, so every session in a fleet runs the same algorithm at the
/// same tolerance.
class CompressorFactory {
 public:
  CompressorFactory() = default;
  explicit CompressorFactory(const AlgorithmConfig& config)
      : config_(config) {}

  /// Fresh compressor; nullptr when the configured algorithm is offline.
  std::unique_ptr<StreamCompressor> Make() const {
    return MakeStreamCompressor(config_);
  }

  /// Fresh compressor at `eps_scale` x the configured epsilon, otherwise
  /// identically configured — the mint behind the service layer's
  /// eps-coarsening degradation, which widens a live stream's error
  /// budget at a segment boundary instead of evicting the session.
  std::unique_ptr<StreamCompressor> MakeScaled(double eps_scale) const {
    AlgorithmConfig scaled = config_;
    scaled.epsilon *= eps_scale;
    return MakeStreamCompressor(scaled);
  }

  /// True when Make() produces a compressor.
  bool streaming() const { return IsStreaming(config_.id); }

  const AlgorithmConfig& config() const { return config_; }

 private:
  AlgorithmConfig config_;
};

}  // namespace bqs

#endif  // BQS_EVAL_ALGORITHMS_H_
