// Ablation: the 3-D BQS (paper Section V-G) — clipped-hull vs the paper's
// <=17-significant-point scheme, exact vs fast engine, plus the
// time-sensitive lift on a 2-D stream and the 4-D BQS. Exits 1 when a
// production row (clipped-hull 3-D, TSBQS in its lifted space, or 4-D)
// exceeds epsilon; the paper17 rows are reported only.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/bqs3d_compressor.h"
#include "core/bounds3d.h"
#include "core/bqs4d_compressor.h"
#include "core/fbqs_compressor.h"
#include "core/time_sensitive.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "simulation/datasets.h"
#include "simulation/random_walk.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace {

// Lifts the synthetic walk into 3-D with a smooth altitude profile.
std::vector<TrackPoint3> Lift3d(const Trajectory& stream) {
  std::vector<TrackPoint3> out;
  out.reserve(stream.size());
  double z = 50.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    z += 0.4 * std::sin(static_cast<double>(i) * 0.013);
    out.push_back(TrackPoint3{Vec3{stream[i].pos.x, stream[i].pos.y, z},
                              stream[i].t});
  }
  return out;
}

// The paper's <= 17-significant-point upper bound: the production octant
// systems with the cheaper point set, which can under-estimate (README.md,
// "Paper-faithfulness notes"). It exists only as this ablation row.
struct Paper17Policy : Octant3dPolicy {
  static DeviationBounds Bounds(const OctantBound& o, Vec3 end,
                                DistanceMetric metric) {
    return OctantDeviationBounds(o, end, metric, o.PaperSignificantPoints());
  }
};

constexpr double kEps = 10.0;

bool WithinEps(double dev) { return dev <= kEps * (1 + 1e-9); }

// Runs one 3-D engine over `walk3` and adds its row; returns whether its
// output stayed within epsilon.
template <typename Policy>
bool Add3dRow(TablePrinter& table, const std::vector<TrackPoint3>& walk3,
              bool exact, const char* hull_mode) {
  OrthantCompressor<Policy> compressor(BqsOptions{.epsilon = kEps}, exact);
  const auto start = std::chrono::steady_clock::now();
  const CompressedTrajectory3 out = CompressAll(compressor, walk3);
  const auto end = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  const double dev =
      EvaluateCompression(walk3, out, compressor.options().metric)
          .max_deviation;
  table.AddRow({exact ? "BQS3D" : "FBQS3D", hull_mode,
                FmtPercent(out.CompressionRate(walk3.size()), 2),
                FmtDouble(dev, 2), WithinEps(dev) ? "yes" : "NO",
                FmtDouble(ms, 1)});
  return WithinEps(dev);
}

int Run(double scale) {
  bench::Banner(
      "Ablation — 3-D BQS: hull modes, engines, and time-sensitive lift",
      "paper Section V-G: the 3-D extension keeps constant per-point cost",
      scale);
  const Dataset synthetic = BuildSyntheticDataset(scale);
  const auto walk3 = Lift3d(synthetic.stream);

  TablePrinter table({"engine", "hull_mode", "rate", "max_dev_m",
                      "bounded", "ms"});
  bool production_bounded = true;
  for (const bool exact : {false, true}) {
    production_bounded =
        Add3dRow<Octant3dPolicy>(table, walk3, exact, "clipped") &&
        production_bounded;
    Add3dRow<Paper17Policy>(table, walk3, exact, "paper17");
  }
  table.Print(std::cout);

  // Time-sensitive lift vs plain 2-D compression on the same stream.
  std::printf("\n-- time-sensitive lift (eps = 10 m, 1 s ~ 1 m) --\n");
  TablePrinter ts_table({"compressor", "points_kept", "rate"});
  {
    FbqsCompressor plain(BqsOptions{.epsilon = 10.0});
    const CompressedTrajectory out = CompressAll(plain, synthetic.stream);
    ts_table.AddRow({"FBQS (shape only)",
                     FmtInt(static_cast<int64_t>(out.size())),
                     FmtPercent(CompressionRate(out.size(),
                                                synthetic.stream.size()),
                                2)});
  }
  {
    TimeSensitiveOptions options;
    options.epsilon = kEps;
    options.time_scale = 1.0;
    TimeSensitiveCompressor ts(options);
    const CompressedTrajectory out = CompressAll(ts, synthetic.stream);
    std::vector<TrackPoint3> lifted;
    lifted.reserve(synthetic.stream.size());
    for (const TrackPoint& p : synthetic.stream) lifted.push_back(ts.Lift(p));
    production_bounded =
        WithinEps(EvaluateCompression(lifted, out,
                                      DistanceMetric::kPointToLine)
                      .max_deviation) &&
        production_bounded;
    ts_table.AddRow({"TSBQS (where+when)",
                     FmtInt(static_cast<int64_t>(out.size())),
                     FmtPercent(CompressionRate(out.size(),
                                                synthetic.stream.size()),
                                2)});
  }
  ts_table.Print(std::cout);
  std::printf(
      "\nthe time-sensitive bound must keep stops (paper [20]'s metric), "
      "so it retains more points than shape-only compression.\n");

  // 4-D BQS (the paper's closing future-work item): altitude + scaled
  // time, hyper-box corner bounds per orthant.
  std::printf("\n-- 4-D BQS <x, y, altitude, 0.5*t> (eps = 10 m) --\n");
  std::vector<TrackPoint4> walk4;
  walk4.reserve(walk3.size());
  const double t0 = walk3.empty() ? 0.0 : walk3.front().t;
  for (const TrackPoint3& p : walk3) {
    walk4.push_back(TrackPoint4{Vec4{p.pos, (p.t - t0) * 0.5}, p.t});
  }
  TablePrinter table4({"engine", "rate", "max_dev", "bounded", "ms"});
  for (const bool exact : {false, true}) {
    Bqs4dCompressor compressor4(BqsOptions{.epsilon = kEps}, exact);
    const auto start = std::chrono::steady_clock::now();
    const CompressedTrajectory4 out = CompressAll(compressor4, walk4);
    const auto end = std::chrono::steady_clock::now();
    const double dev =
        EvaluateCompression(walk4, out, compressor4.options().metric)
            .max_deviation;
    production_bounded = WithinEps(dev) && production_bounded;
    table4.AddRow(
        {exact ? "BQS4D" : "FBQS4D",
         FmtPercent(out.CompressionRate(walk4.size()), 2),
         FmtDouble(dev, 2), WithinEps(dev) ? "yes" : "NO",
         FmtDouble(std::chrono::duration<double, std::milli>(end - start)
                       .count(),
                   1)});
  }
  table4.Print(std::cout);
  if (!production_bounded) {
    std::fprintf(stderr,
                 "FAIL: a production row exceeded the %.1f m error bound\n",
                 kEps);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) {
  return bqs::Run(bqs::bench::ScaleFromArgs(argc, argv, 0.15));
}
