// 3-D and time-sensitive compression (paper Section V-G).
//
//   $ ./flight_3d
//
// Part 1: an aerial trajectory with altitude is compressed by the 3-D BQS
// (octants + bounding prisms + bounding planes).
// Part 2: the same 2-D stream is compressed with the time-sensitive lift,
// so the guarantee covers *where the object was at a given time* — stops
// survive compression that shape-only BQS would erase.
#include <cmath>
#include <cstdio>

#include "core/bqs3d_compressor.h"
#include "core/fbqs_compressor.h"
#include "core/time_sensitive.h"
#include "trajectory/deviation.h"

int main() {
  using namespace bqs;

  // Part 1 — a climbing, circling survey flight.
  std::vector<TrackPoint3> flight;
  for (int i = 0; i <= 1200; ++i) {
    const double t = i * 2.0;
    const double angle = t * 0.004;
    const double radius = 800.0 + 0.05 * t;
    flight.push_back(TrackPoint3{
        Vec3{radius * std::cos(angle), radius * std::sin(angle),
             120.0 + 0.03 * t},
        t});
  }

  BqsOptions options3d;
  options3d.epsilon = 15.0;
  Bqs3dCompressor compressor3d(options3d, /*exact_mode=*/false);
  const CompressedTrajectory3 compressed3d =
      CompressAll(compressor3d, flight);
  const DeviationReport report3d =
      EvaluateCompression(flight, compressed3d, options3d.metric);
  std::printf("3-D survey flight: %zu fixes -> %zu key points (%.1f%%), "
              "max 3-D deviation %.2f m (bound %.0f m)\n",
              flight.size(), compressed3d.size(),
              100.0 * compressed3d.CompressionRate(flight.size()),
              report3d.max_deviation, options3d.epsilon);

  // Part 2 — time-sensitive compression of a delivery run with stops.
  Trajectory run;
  double t = 0.0;
  const auto drive = [&](Vec2 from, Vec2 to, double speed) {
    const double dist = Distance(from, to);
    const int steps = static_cast<int>(dist / (speed * 5.0));
    for (int i = 1; i <= steps; ++i) {
      run.push_back(TrackPoint{from + (to - from) * (i / double(steps)),
                               t += 5.0, (to - from) / dist * speed});
    }
  };
  const auto stop = [&](Vec2 where, double duration) {
    for (double s = 0.0; s < duration; s += 5.0) {
      run.push_back(TrackPoint{where, t += 5.0, {0, 0}});
    }
  };
  run.push_back(TrackPoint{{0, 0}, t, {0, 0}});
  drive({0, 0}, {1500, 0}, 12.0);
  stop({1500, 0}, 240.0);  // first delivery: 4 minutes
  drive({1500, 0}, {3000, 0}, 12.0);
  stop({3000, 0}, 180.0);  // second delivery
  drive({3000, 0}, {4500, 0}, 12.0);

  FbqsCompressor shape_only(BqsOptions{.epsilon = 20.0});
  const CompressedTrajectory by_shape = CompressAll(shape_only, run);

  TimeSensitiveOptions ts_options;
  ts_options.epsilon = 20.0;
  ts_options.time_scale = 0.5;  // 40 s of timing error ~ 20 m of path error
  TimeSensitiveCompressor when_and_where(ts_options);
  const CompressedTrajectory by_time = CompressAll(when_and_where, run);

  std::printf("\ndelivery run (%zu fixes, two stops on a straight road):\n",
              run.size());
  std::printf("  shape-only FBQS keeps %zu points — the stops vanish\n",
              by_shape.size());
  std::printf("  time-sensitive BQS keeps %zu points — stops survive:\n",
              by_time.size());
  for (const KeyPoint& k : by_time.keys) {
    std::printf("    x=%6.0f m  t=%5.0f s\n", k.point.pos.x, k.point.t);
  }
  return report3d.BoundedBy(options3d.epsilon) ? 0 : 1;
}
