// The Fast BQS compressor (paper Section V-E): identical to BQS except the
// inconclusive-bounds case aggressively splits instead of scanning, which
// eliminates the segment buffer. Per-point time and space are O(1); for
// the whole stream, O(n) time and O(1) space (Table I).
#ifndef BQS_CORE_FBQS_COMPRESSOR_H_
#define BQS_CORE_FBQS_COMPRESSOR_H_

#include "core/segment_state.h"
#include "trajectory/compressor.h"

namespace bqs {

/// Constant-space error-bounded streaming compressor, suitable for the
/// 4 KB-RAM tracker class the paper targets: the entire streaming state is
/// this object (no heap growth during steady-state operation).
class FbqsCompressor final : public StreamCompressor {
 public:
  explicit FbqsCompressor(const BqsOptions& options = {})
      : engine_(options, /*exact_mode=*/false) {}
  /// Test/bench-only: runs an oracle configuration (see KernelOracle).
  FbqsCompressor(const BqsOptions& options,
                 const internal::KernelOracle& oracle)
      : engine_(options, /*exact_mode=*/false, oracle) {}

  void Push(const TrackPoint& pt, std::vector<KeyPoint>* out) override {
    engine_.Push(pt, out);
  }
  void PushBatch(std::span<const TrackPoint> points,
                 std::vector<KeyPoint>* out) override {
    engine_.PushBatch(points, out);
  }
  void Finish(std::vector<KeyPoint>* out) override { engine_.Finish(out); }
  void Reset() override { engine_.Reset(); }
  std::string_view name() const override { return "FBQS"; }
  const DecisionStats* decision_stats() const override {
    return &engine_.stats();
  }
  std::size_t StateBytes() const override { return engine_.StateBytes(); }
  double ErrorBound() const override { return engine_.options().epsilon; }

  /// Decision counters (pruning power, split mix).
  const DecisionStats& stats() const { return engine_.stats(); }
  const BqsOptions& options() const { return engine_.options(); }

  /// Instrumentation hook (bounds only; no exact deviation in fast mode).
  void SetProbe(std::function<void(const internal::BoundsProbe&)> probe) {
    engine_.SetProbe(std::move(probe));
  }

  /// Test/diagnostic access to the underlying engine.
  const internal::SegmentEngine& engine() const { return engine_; }

 private:
  internal::SegmentEngine engine_;
};

}  // namespace bqs

#endif  // BQS_CORE_FBQS_COMPRESSOR_H_
