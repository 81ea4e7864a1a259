// Ablation: data-centric rotation (paper Section V-D) on vs off, and
// warm-up length sensitivity, set through the test/bench-only
// internal::KernelOracle hook. The paper argues rotation tightens the
// hulls "significantly"; this bench quantifies it per dataset, with the
// hull from the first point (the paper's bounds-before-scan order) so BQS
// pruning power is Algorithm 1's.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/bqs_compressor.h"
#include "core/fbqs_compressor.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "simulation/datasets.h"

namespace bqs {
namespace {

int Run(double scale) {
  bench::Banner(
      "Ablation — data-centric rotation and warm-up length (eps = 10 m)",
      "paper Section V-D: rotation improves pruning power significantly",
      scale);
  TablePrinter table({"dataset", "rotation", "warmup", "BQS_pruning",
                      "FBQS_rate"});
  for (const Dataset& dataset : BuildAllDatasets(scale)) {
    for (const bool rotate : {false, true}) {
      for (const int warmup : {4, 8, 16}) {
        if (!rotate && warmup != 8) continue;  // warm-up only matters on.
        BqsOptions options;
        options.epsilon = 10.0;
        const internal::KernelOracle oracle{.hull_migration = 1,
                                            .data_centric_rotation = rotate,
                                            .rotation_warmup = warmup};

        BqsCompressor bqs(options, oracle);
        std::vector<KeyPoint> keys;
        for (const TrackPoint& p : dataset.stream) bqs.Push(p, &keys);
        bqs.Finish(&keys);

        FbqsCompressor fbqs(options, oracle);
        const CompressedTrajectory fast = CompressAll(fbqs, dataset.stream);

        table.AddRow({dataset.name, rotate ? "on" : "off",
                      rotate ? FmtInt(warmup) : "-",
                      FmtDouble(bqs.stats().PruningPower(), 4),
                      FmtPercent(CompressionRate(fast.size(),
                                                 dataset.stream.size()),
                                 2)});
      }
    }
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) {
  return bqs::Run(bqs::bench::ScaleFromArgs(argc, argv, 0.35));
}
