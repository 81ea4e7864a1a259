// Time-sensitive compression (paper Section V-G, citing Cao et al.'s
// deterministic spatio-temporal error): the 2-D stream is lifted into 3-D
// with z = (t - t0) * time_scale and compressed by the 3-D BQS, so the
// error bound covers *where the object was at a given time*, not just the
// path shape.
#ifndef BQS_CORE_TIME_SENSITIVE_H_
#define BQS_CORE_TIME_SENSITIVE_H_

#include <cmath>
#include <vector>

#include "core/bqs3d_compressor.h"
#include "core/options.h"
#include "trajectory/compressor.h"

namespace bqs {

/// Options for the time-sensitive wrapper.
struct TimeSensitiveOptions {
  /// Spatio-temporal tolerance (metres in the lifted space).
  double epsilon = 10.0;
  /// Metres of error one second of temporal displacement is worth. E.g.
  /// 1.0 means being 10 s early/late counts like being 10 m off-path.
  double time_scale = 1.0;
  /// Exact (buffered) or fast (constant-space) 3-D engine.
  bool exact = false;

  Status Validate() const {
    BQS_RETURN_NOT_OK(ValidateEpsilon(epsilon));
    if (!std::isfinite(time_scale) || time_scale < 0.0) {
      return Status::InvalidArgument("time_scale must be finite and >= 0");
    }
    return Status::OK();
  }
};

/// StreamCompressor adapter: consumes ordinary 2-D TrackPoints, guarantees
/// the 3-D spatio-temporal bound internally, emits ordinary KeyPoints.
class TimeSensitiveCompressor final : public StreamCompressor {
 public:
  explicit TimeSensitiveCompressor(const TimeSensitiveOptions& options = {});

  void Push(const TrackPoint& pt, std::vector<KeyPoint>* out) override;
  void Finish(std::vector<KeyPoint>* out) override;
  void Reset() override;
  std::string_view name() const override { return "TSBQS"; }
  double ErrorBound() const override { return options_.epsilon; }

  const DecisionStats& stats() const { return inner_.stats(); }
  const TimeSensitiveOptions& options() const { return options_; }

  /// The 3-D lift applied to inputs (exposed so tests can verify bounds in
  /// the lifted space).
  TrackPoint3 Lift(const TrackPoint& pt) const;

 private:
  void Drain(std::vector<KeyPoint>* out);

  TimeSensitiveOptions options_;
  Bqs3dCompressor inner_;
  std::vector<KeyPoint3> pending_;
  bool have_t0_ = false;
  double t0_ = 0.0;
  /// Original 2-D points of emitted keys are reconstructed from the lift;
  /// velocity is not preserved (keys carry zero velocity).
};

}  // namespace bqs

#endif  // BQS_CORE_TIME_SENSITIVE_H_
