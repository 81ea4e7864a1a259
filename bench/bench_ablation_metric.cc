// Ablation: point-to-line (paper default) vs point-to-segment deviation
// (paper Section V-G / Eq. 11). The segment metric is strictly stricter,
// so it keeps more points; this bench quantifies the difference and
// verifies both bounds end to end. BQS keeps the hull from the first point
// (bench-only internal::KernelOracle hook), the paper's bounds-before-scan
// order, so its pruning power is Algorithm 1's.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/bqs_compressor.h"
#include "core/fbqs_compressor.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "simulation/datasets.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace {

int Run(double scale) {
  bench::Banner(
      "Ablation — point-to-line vs point-to-segment deviation metric",
      "paper Section V-G: BQS supports both; segment metric is stricter",
      scale);
  TablePrinter table({"dataset", "eps_m", "metric", "BQS_rate", "FBQS_rate",
                      "pruning", "bounded"});
  for (const Dataset& dataset : BuildAllDatasets(scale)) {
    for (double eps : {5.0, 10.0, 20.0}) {
      for (const DistanceMetric metric :
           {DistanceMetric::kPointToLine, DistanceMetric::kPointToSegment}) {
        BqsOptions options;
        options.epsilon = eps;
        options.metric = metric;

        BqsCompressor bqs(options,
                          internal::KernelOracle{.hull_migration = 1});
        const CompressedTrajectory exact = CompressAll(bqs, dataset.stream);
        FbqsCompressor fbqs(options);
        const CompressedTrajectory fast = CompressAll(fbqs, dataset.stream);

        const double dev =
            EvaluateCompression(dataset.stream, exact, metric).max_deviation;
        const double dev_fast =
            EvaluateCompression(dataset.stream, fast, metric).max_deviation;
        const bool bounded = dev <= eps * (1 + 1e-9) &&
                             dev_fast <= eps * (1 + 1e-9);
        table.AddRow(
            {dataset.name, FmtDouble(eps, 0),
             metric == DistanceMetric::kPointToLine ? "line" : "segment",
             FmtPercent(CompressionRate(exact.size(), dataset.stream.size()),
                        2),
             FmtPercent(CompressionRate(fast.size(), dataset.stream.size()),
                        2),
             FmtDouble(bqs.stats().PruningPower(), 3),
             bounded ? "yes" : "NO"});
      }
    }
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) {
  return bqs::Run(bqs::bench::ScaleFromArgs(argc, argv, 0.25));
}
