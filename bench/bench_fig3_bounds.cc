// Fig. 3 reproduction: lower/upper bound vs actual deviation for ~100
// consecutive bound-assessed points of the bat stream at epsilon = 5 m.
// The paper's claim: the bounds are tight, and >90% of decisions need no
// exact deviation computation. Runs Algorithm 1's order (bounds on every
// point after an 8-point rotation warm-up) by keeping the hull from the
// first point through the bench-only internal::KernelOracle hook: the
// default kernel decides short segments by exact scans alone, so it would
// probe fewer points.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/bqs_compressor.h"
#include "eval/table.h"
#include "simulation/datasets.h"

namespace bqs {
namespace {

int Run(double scale) {
  bench::Banner("Fig. 3 — Bounds vs actual deviation (bat data, eps = 5 m)",
                "tight sandwich; >90% of points decided by bounds alone",
                scale);
  const Dataset bat = BuildBatDataset(scale);

  BqsOptions options;
  options.epsilon = 5.0;
  BqsCompressor bqs(options, internal::KernelOracle{.hull_migration = 1});

  struct Row {
    uint64_t index;
    double lower, upper, actual;
  };
  std::vector<Row> rows;
  uint64_t decisive = 0;
  uint64_t assessed = 0;
  bqs.SetProbe([&](const internal::BoundsProbe& probe) {
    ++assessed;
    if (probe.upper <= probe.epsilon || probe.lower > probe.epsilon) {
      ++decisive;
    }
    if (rows.size() < 100) {
      rows.push_back(Row{probe.index, probe.lower, probe.upper,
                         probe.actual});
    }
  });
  std::vector<KeyPoint> keys;
  for (const TrackPoint& p : bat.stream) bqs.Push(p, &keys);
  bqs.Finish(&keys);

  TablePrinter table({"point", "lower_m", "upper_m", "actual_m",
                      "tolerance_m", "decided_by_bounds"});
  for (const Row& row : rows) {
    const bool by_bounds = row.upper <= 5.0 || row.lower > 5.0;
    table.AddRow({FmtInt(static_cast<int64_t>(row.index)),
                  FmtDouble(row.lower, 3), FmtDouble(row.upper, 3),
                  FmtDouble(row.actual, 3), "5.000",
                  by_bounds ? "yes" : "no"});
  }
  table.Print(std::cout);

  std::printf("\nbound-assessed points: %llu\n",
              static_cast<unsigned long long>(assessed));
  std::printf("decided by bounds alone: %llu (%.1f%%; paper: >90%%)\n",
              static_cast<unsigned long long>(decisive),
              assessed ? 100.0 * static_cast<double>(decisive) /
                             static_cast<double>(assessed)
                       : 100.0);
  std::printf("pruning power over the whole stream: %.3f\n",
              bqs.stats().PruningPower());
  return 0;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) {
  return bqs::Run(bqs::bench::ScaleFromArgs(argc, argv, 0.25));
}
