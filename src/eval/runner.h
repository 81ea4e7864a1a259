// Sweep runner: algorithm x dataset x epsilon grids with verification,
// producing the rows every figure/table bench prints.
#ifndef BQS_EVAL_RUNNER_H_
#define BQS_EVAL_RUNNER_H_

#include <span>
#include <string>
#include <vector>

#include "eval/algorithms.h"
#include "eval/metrics.h"
#include "simulation/datasets.h"

namespace bqs {

/// One sweep cell.
struct SweepRow {
  std::string dataset;
  std::string algorithm;
  double epsilon = 0.0;
  std::size_t points_in = 0;
  std::size_t points_out = 0;
  double compression_rate = 0.0;
  double runtime_ms = 0.0;
  double max_deviation = 0.0;
  bool error_bounded = false;
  /// DecisionStats::PruningPower() of the production kernel, -1 when not
  /// applicable. BQS's scan phase decides short segments by warm-up
  /// checks, which it leaves out, so this is not Fig. 6's measure (see
  /// bench_fig6_pruning_power).
  double pruning_power = -1.0;
};

/// Runs every algorithm over every dataset at every epsilon.
/// `verify` additionally measures the exact max deviation (slower).
std::vector<SweepRow> RunSweep(std::span<const AlgorithmId> algorithms,
                               std::span<const Dataset> datasets,
                               std::span<const double> epsilons,
                               std::size_t buffer_size = 32,
                               bool verify = true);

/// Single cell convenience.
SweepRow RunCell(AlgorithmId algorithm, const Dataset& dataset,
                 double epsilon, std::size_t buffer_size = 32,
                 bool verify = true);

}  // namespace bqs

#endif  // BQS_EVAL_RUNNER_H_
