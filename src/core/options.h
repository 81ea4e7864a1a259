// Configuration shared by the BQS family of compressors.
#ifndef BQS_CORE_OPTIONS_H_
#define BQS_CORE_OPTIONS_H_

#include <cmath>

#include "common/status.h"
#include "geometry/line2.h"

namespace bqs {

/// The one epsilon check every compressor option struct shares: the
/// tolerance must be a finite positive number of metres.
inline Status ValidateEpsilon(double epsilon) {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  return Status::OK();
}

/// Options for BqsCompressor / FbqsCompressor (and the 3-D variants, which
/// reuse epsilon/metric). Defaults follow the paper's evaluation setup.
/// The paper-literal ablations and the rotation tuning are test/bench-only
/// and live in internal::KernelOracle (core/segment_state.h).
struct BqsOptions {
  /// Error tolerance d in metres: every compressed segment's deviation is
  /// guaranteed <= epsilon.
  double epsilon = 10.0;

  /// Deviation metric. The paper proves its theorems for point-to-line and
  /// gives the Eq. (11) adjustment for point-to-segment.
  DistanceMetric metric = DistanceMetric::kPointToLine;

  /// Validates ranges; returns InvalidArgument with an explanation if bad.
  Status Validate() const { return ValidateEpsilon(epsilon); }
};

}  // namespace bqs

#endif  // BQS_CORE_OPTIONS_H_
