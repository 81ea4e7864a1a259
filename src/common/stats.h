// Streaming and batch statistics. RunningStats implements Welford's online
// mean/variance update — the semi-numeric algorithm the paper cites (Knuth,
// TAOCP vol. 2) for fitting a Gaussian interpolation distribution online.
#ifndef BQS_COMMON_STATS_H_
#define BQS_COMMON_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace bqs {

/// Online mean/variance accumulator (Welford / Knuth TAOCP 4.2.2).
/// Constant space; numerically stable for long streams.
class RunningStats {
 public:
  /// Folds one observation into the accumulator.
  void Add(double x);

  /// Number of observations so far.
  int64_t count() const { return count_; }
  /// Mean of observations; 0 when empty.
  double mean() const { return mean_; }
  /// Population variance (divides by n); 0 for n < 2.
  double variance() const;
  /// Sample variance (divides by n-1); 0 for n < 2.
  double sample_variance() const;
  /// sqrt(variance()).
  double stddev() const;
  /// Smallest observation; +inf when empty.
  double min() const { return min_; }
  /// Largest observation; -inf when empty.
  double max() const { return max_; }

  /// Merges another accumulator into this one (parallel Welford merge).
  void Merge(const RunningStats& other);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Batch percentile over a copy of the data (nearest-rank with linear
/// interpolation). `q` in [0, 1]. Returns 0 for empty input.
double Percentile(std::vector<double> values, double q);

}  // namespace bqs

#endif  // BQS_COMMON_STATS_H_
