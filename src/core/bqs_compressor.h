// The BQS compressor (paper Algorithm 1): online, error-bounded, with exact
// deviation scans only when the convex-hull bounds are inconclusive.
// Expected time is ~O(n) for the stream thanks to >90% pruning power;
// worst-case O(n^2) time and O(n) space (Table I discussion).
#ifndef BQS_CORE_BQS_COMPRESSOR_H_
#define BQS_CORE_BQS_COMPRESSOR_H_

#include "core/segment_state.h"
#include "trajectory/compressor.h"

namespace bqs {

/// Error-bounded streaming compressor. Every compressed segment's deviation
/// (max distance from an original interior point to the segment's path) is
/// guaranteed <= options.epsilon.
///
/// Usage:
///   BqsCompressor bqs({.epsilon = 10.0});
///   std::vector<KeyPoint> keys;
///   for (const TrackPoint& p : stream) bqs.Push(p, &keys);
///   bqs.Finish(&keys);
class BqsCompressor final : public StreamCompressor {
 public:
  explicit BqsCompressor(const BqsOptions& options = {})
      : engine_(options, /*exact_mode=*/true) {}
  /// Test/bench-only: runs an oracle configuration (see KernelOracle).
  BqsCompressor(const BqsOptions& options,
                const internal::KernelOracle& oracle)
      : engine_(options, /*exact_mode=*/true, oracle) {}

  void Push(const TrackPoint& pt, std::vector<KeyPoint>* out) override {
    engine_.Push(pt, out);
  }
  void PushBatch(std::span<const TrackPoint> points,
                 std::vector<KeyPoint>* out) override {
    engine_.PushBatch(points, out);
  }
  void Finish(std::vector<KeyPoint>* out) override { engine_.Finish(out); }
  void Reset() override { engine_.Reset(); }
  std::string_view name() const override { return "BQS"; }
  const DecisionStats* decision_stats() const override {
    return &engine_.stats();
  }
  std::size_t StateBytes() const override { return engine_.StateBytes(); }
  double ErrorBound() const override { return engine_.options().epsilon; }

  /// Decision counters (pruning power, split mix).
  const DecisionStats& stats() const { return engine_.stats(); }
  const BqsOptions& options() const { return engine_.options(); }

  /// Instrumentation hook for bound-vs-actual traces (Fig. 3).
  void SetProbe(std::function<void(const internal::BoundsProbe&)> probe) {
    engine_.SetProbe(std::move(probe));
  }

  /// Test/diagnostic access to the underlying engine.
  const internal::SegmentEngine& engine() const { return engine_; }

 private:
  internal::SegmentEngine engine_;
};

}  // namespace bqs

#endif  // BQS_CORE_BQS_COMPRESSOR_H_
