// Fig. 6 reproduction: BQS pruning power vs error tolerance on the bat
// (2-20 m) and vehicle (5-50 m) datasets. Paper: generally above 0.9, with
// the vehicle data slightly higher thanks to road-network smoothness.
// Runs the paper's Algorithm 1 order (bounds before any scan) by keeping the
// hull from the first point through the bench-only internal::KernelOracle
// hook: the default kernel settles box pre-test misses on short segments
// with the exact scan instead, which lowers the counted pruning power
// without changing a decision.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "eval/ascii_chart.h"
#include "core/bqs_compressor.h"
#include "eval/table.h"
#include "simulation/datasets.h"

namespace bqs {
namespace {

void RunDataset(const Dataset& dataset, const std::vector<double>& epsilons) {
  std::printf("\n-- %s data (%zu points) --\n", dataset.name.c_str(),
              dataset.stream.size());
  TablePrinter table({"eps_m", "pruning_power", "pruning_incl_warmup",
                      "bound_decisiveness", "exact_calcs"});
  ChartSeries curve{dataset.name + " pruning power", {}, {}};
  for (double eps : epsilons) {
    BqsOptions options;
    options.epsilon = eps;
    BqsCompressor bqs(options, internal::KernelOracle{.hull_migration = 1});
    std::vector<KeyPoint> keys;
    for (const TrackPoint& p : dataset.stream) bqs.Push(p, &keys);
    bqs.Finish(&keys);
    const DecisionStats& stats = bqs.stats();
    table.AddRow({FmtDouble(eps, 0), FmtDouble(stats.PruningPower(), 4),
                  FmtDouble(stats.PruningPowerInclWarmup(), 4),
                  FmtDouble(stats.BoundDecisiveness(), 4),
                  FmtInt(static_cast<int64_t>(stats.exact_computations))});
    curve.xs.push_back(eps);
    curve.ys.push_back(stats.PruningPower());
  }
  table.Print(std::cout);
  AsciiChart chart(60, 12);
  chart.Add(std::move(curve));
  chart.Print(std::cout);
}

int Run(double scale) {
  bench::Banner(
      "Fig. 6 — Pruning power of the BQS algorithm vs error tolerance",
      "(a) bat 2-20 m, (b) vehicle 5-50 m; generally above 0.9", scale);
  RunDataset(BuildBatDataset(scale),
             {2, 4, 6, 8, 10, 12, 14, 16, 18, 20});
  RunDataset(BuildVehicleDataset(scale),
             {5, 10, 15, 20, 25, 30, 35, 40, 45, 50});
  return 0;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) {
  return bqs::Run(bqs::bench::ScaleFromArgs(argc, argv, 0.35));
}
