// Micro benchmarks for the per-point decision kernel (ISSUE 4): the new
// transcendental-free primitives head-to-head against the seed's
// transcendental path, at the operation level and end-to-end.
//
//   classify     — sign-test quadrant classification vs atan2+fmod
//   significant  — cached vs per-query-recomputed SignificantPoints
//   compare      — squared-deviation threshold test vs sqrt-bearing
//                  distances (the conclusive-case decision)
//   push         — BQS/FBQS full-stream throughput, fast vs reference
//                  kernel, with the ops:: transcendental counters proving
//                  the fast kernel's conclusive path performs zero atan2
//                  calls (modulo counted guard-band fallbacks, each of
//                  which re-runs the reference composition)
//   yardstick    — a bare exact greedy over a start-relative SoA buffer
//                  on the random walk (line metric, BQS's squared verdict
//                  and guard band), timed round-robin with the push rows:
//                  the constant-cost inner loop fast BQS's scan phase is
//                  measured against (tools/check_perf.py caps the ratio)
//
// Emits BENCH_micro.json (bench::JsonReport) and exits 1 on any checksum
// divergence between kernels or from the yardstick, or if the fast kernel
// touches a transcendental outside its accounted fallbacks.
//
// Usage: bench_micro_ops [scale | --scale S] [--out PATH] [--reps N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/math_utils.h"
#include "common/op_counters.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/bounds.h"
#include "core/bqs_compressor.h"
#include "core/fbqs_compressor.h"
#include "geometry/angle.h"
#include "simulation/datasets.h"
#include "simulation/random_walk.h"
#include "trajectory/compressor.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace {

constexpr double kEpsilon = 10.0;
constexpr uint64_t kFnvPrime = 1099511628211u;

template <typename Body>
double BestMs(int reps, Body&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

double NsPerOp(double best_ms, std::size_t n) {
  return n == 0 ? 0.0 : best_ms * 1e6 / static_cast<double>(n);
}

uint64_t MixDouble(uint64_t h, double v) {
  return bench::Fnv1aMix(h, &v, sizeof(v));
}

uint64_t MixVec2(uint64_t h, Vec2 v) { return MixDouble(MixDouble(h, v.x), v.y); }

// ---------------------------------------------------------------------------
// classify: sign tests vs atan2. The inputs mix realistic magnitudes with
// exact-axis and signed-zero points (where the two classifiers agree by the
// documented tie semantics); the sub-ulp near-axis sliver where the atan2
// formula itself misclassifies (see QuadrantOf) is excluded by
// construction, as it is from any real trajectory frame.
// ---------------------------------------------------------------------------
std::vector<Vec2> ClassifyInputs(std::size_t n) {
  Rng rng(11);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 97 == 0) {
      // Axis-aligned, including signed zeros: the boundary cases.
      const double r = rng.Uniform(0.5, 2000.0);
      switch (i / 97 % 8) {
        case 0: pts.push_back({r, 0.0}); break;
        case 1: pts.push_back({r, -0.0}); break;
        case 2: pts.push_back({0.0, r}); break;
        case 3: pts.push_back({-0.0, r}); break;
        case 4: pts.push_back({-r, 0.0}); break;
        case 5: pts.push_back({-r, -0.0}); break;
        case 6: pts.push_back({0.0, -r}); break;
        default: pts.push_back({-0.0, -r}); break;
      }
    } else {
      const double theta = rng.Uniform(0.0, kTwoPi);
      const double r = rng.Uniform(0.1, 3000.0);
      pts.push_back({r * std::cos(theta), r * std::sin(theta)});
    }
  }
  return pts;
}

template <int (*Classifier)(Vec2)>
uint64_t ClassifyChecksum(const std::vector<Vec2>& pts) {
  uint64_t h = bench::kFnvOffset;
  for (const Vec2 p : pts) {
    h = h * kFnvPrime + static_cast<uint64_t>(Classifier(p));
  }
  return h;
}

// ---------------------------------------------------------------------------
// significant: cached vs recomputed. The fold is a cheap arithmetic sum
// (not a byte hash) so the measured delta is the recompute cost itself;
// the bitwise cached-vs-recomputed equality is asserted separately via one
// full-precision hash per variant.
// ---------------------------------------------------------------------------
double FoldSignificant(const QuadrantBound::SignificantPoints& s) {
  double acc = 0.0;
  for (const Vec2 c : s.corners) acc += c.x + c.y;
  acc += s.l1.x + s.l1.y + s.l2.x + s.l2.y;
  acc += s.u1.x + s.u1.y + s.u2.x + s.u2.y;
  acc += s.near_corner.x + s.far_corner.y;
  acc += s.min_angle_point.x + s.max_angle_point.y;
  return acc;
}

uint64_t MixSignificant(uint64_t h, const QuadrantBound::SignificantPoints& s) {
  for (const Vec2 c : s.corners) h = MixVec2(h, c);
  h = MixVec2(h, s.l1);
  h = MixVec2(h, s.l2);
  h = MixVec2(h, s.u1);
  h = MixVec2(h, s.u2);
  h = MixVec2(h, s.near_corner);
  h = MixVec2(h, s.far_corner);
  h = MixVec2(h, s.min_angle_point);
  h = MixVec2(h, s.max_angle_point);
  return h;
}

QuadrantBound MakeBound(int seed) {
  Rng rng(static_cast<uint64_t>(seed));
  QuadrantBound qb(0);
  for (int i = 0; i < 24; ++i) {
    qb.AddCross({rng.Uniform(1.0, 300.0), rng.Uniform(1.0, 300.0)});
  }
  return qb;
}

// ---------------------------------------------------------------------------
// compare: the conclusive-case decision on a quadrant's candidate set —
// sqrt-bearing distances vs the squared-domain test.
// ---------------------------------------------------------------------------
struct CompareCase {
  Vec2 end;
  Vec2 candidates[10];
};

std::vector<CompareCase> CompareInputs(std::size_t n) {
  Rng rng(13);
  std::vector<CompareCase> cases(n);
  for (CompareCase& c : cases) {
    c.end = {rng.Uniform(50.0, 800.0), rng.Uniform(-200.0, 200.0)};
    for (Vec2& p : c.candidates) {
      // Hover the candidates around the epsilon band so decisions mix.
      const double t = rng.Uniform(0.0, 1.0);
      const Vec2 on_path = c.end * t;
      const double offset = rng.Uniform(-3.0 * kEpsilon, 3.0 * kEpsilon);
      const Vec2 normal =
          Vec2{-c.end.y, c.end.x} * (1.0 / std::max(c.end.Norm(), 1e-9));
      p = on_path + normal * offset;
    }
  }
  return cases;
}

uint64_t CompareSqrtChecksum(const std::vector<CompareCase>& cases) {
  uint64_t h = bench::kFnvOffset;
  for (const CompareCase& c : cases) {
    double dmax = 0.0;
    for (const Vec2 p : c.candidates) {
      dmax = std::max(dmax, PointToLineDistance(p, {0.0, 0.0}, c.end));
    }
    h = h * kFnvPrime + (dmax <= kEpsilon ? 1u : 0u);
  }
  return h;
}

uint64_t CompareSquaredChecksum(const std::vector<CompareCase>& cases) {
  uint64_t h = bench::kFnvOffset;
  for (const CompareCase& c : cases) {
    double cmax = 0.0;
    for (const Vec2 p : c.candidates) {
      cmax = std::max(cmax, std::fabs(c.end.Cross(p)));
    }
    const bool within = cmax * cmax <= kEpsilon * kEpsilon * c.end.NormSq();
    h = h * kFnvPrime + (within ? 1u : 0u);
  }
  return h;
}

// ---------------------------------------------------------------------------
// push: end-to-end kernel comparison.
// ---------------------------------------------------------------------------
struct PushRun {
  std::string stream;
  std::string algorithm;
  const char* kernel = "";
  std::size_t points = 0;
  double best_ms = 0.0;
  double points_per_sec = 0.0;
  uint64_t checksum = 0;
  ops::Snapshot op_delta;
  DecisionStats stats;
};

/// One timed row of a stream: `pass` compresses the stream once and
/// returns its keys.
struct PushRow {
  PushRun run;
  std::function<std::vector<KeyPoint>()> pass;
};

template <typename Compressor>
PushRow PushRowFor(const std::string& stream_name, const Trajectory& stream,
                   const std::string& algorithm, bool reference_kernel) {
  BqsOptions options;
  options.epsilon = kEpsilon;
  const internal::KernelOracle oracle{.reference_kernel = reference_kernel};
  PushRow row;
  row.run.stream = stream_name;
  row.run.algorithm = algorithm;
  row.run.kernel = reference_kernel ? "reference" : "fast";
  row.run.points = stream.size();
  row.pass = [options, oracle, &stream] {
    Compressor compressor(options, oracle);
    return CompressAll(compressor, stream).keys;
  };
  return row;
}

/// The yardstick: a bare exact greedy under the line metric. Every fix
/// farther than epsilon from the segment start is buffered relative to
/// it in two contiguous arrays, and each end is decided by the squared
/// max|cross| verdict over them through the active tier's max_abs_cross,
/// with BQS's 1e-12 guard band settled by the sqrt-bearing rescan. BQS
/// keeps exactly these points and decides exactly this way, so the keys
/// are identical; what BQS adds is its per-point bookkeeping.
std::vector<KeyPoint> BareExactGreedy(const Trajectory& stream, double eps) {
  std::vector<KeyPoint> keys;
  if (stream.empty()) return keys;
  const simd::KernelTable& kernels = simd::KernelsFor(simd::ActiveTier());
  const double eps_sq = eps * eps;
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(256);
  ys.reserve(256);
  std::size_t start = 0;
  keys.push_back({stream[0], 0});
  for (std::size_t i = 1; i < stream.size(); ++i) {
    Vec2 d = stream[i].pos - stream[start].pos;
    if (!xs.empty()) {
      int verdict = 0;  // guard band or degenerate end: rescan
      if (!(d == Vec2{0.0, 0.0})) {
        double vmax =
            kernels.max_abs_cross(xs.data(), ys.data(), xs.size(), d.x, d.y);
        vmax *= vmax;
        const double threshold = eps_sq * d.NormSq();
        if (vmax <= threshold * (1.0 - 1e-12)) {
          verdict = 1;
        } else if (vmax > threshold * (1.0 + 1e-12)) {
          verdict = -1;
        }
      }
      if (verdict == 0) {
        const Vec2 a = stream[start].pos;
        double dev = 0.0;
        for (std::size_t k = start + 1; k < i; ++k) {
          if ((stream[k].pos - a).NormSq() > eps_sq) {
            dev = std::max(dev, PointToLineDistance(stream[k].pos, a,
                                                    stream[i].pos));
          }
        }
        verdict = dev <= eps ? 1 : -1;
      }
      if (verdict < 0) {
        start = i - 1;
        keys.push_back({stream[start], start});
        xs.clear();
        ys.clear();
        d = stream[i].pos - stream[start].pos;
      }
    }
    if (d.NormSq() > eps_sq) {
      xs.push_back(d.x);
      ys.push_back(d.y);
    }
  }
  if (keys.back().index != stream.size() - 1) {
    keys.push_back({stream.back(), stream.size() - 1});
  }
  return keys;
}

/// Times `reps` passes of every row round-robin (rep r of every row runs
/// before rep r+1 of any, so a slow stretch of the host lands on all rows
/// alike), keeping each row's best time and its checksum. Then one
/// untimed pass per row reads its op counters; the compressor rows also
/// report their decision stats from it.
void MeasureRoundRobin(std::vector<PushRow>& rows, int reps) {
  for (int r = 0; r < reps; ++r) {
    for (PushRow& row : rows) {
      const auto start = std::chrono::steady_clock::now();
      const std::vector<KeyPoint> keys = row.pass();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (r == 0 || ms < row.run.best_ms) row.run.best_ms = ms;
      if (r == 0) row.run.checksum = bench::ChecksumKeys(keys);
    }
  }
  for (PushRow& row : rows) {
    row.run.points_per_sec =
        row.run.best_ms > 0.0
            ? static_cast<double>(row.run.points) / (row.run.best_ms / 1000.0)
            : 0.0;
  }
}

template <typename Compressor>
void CountPush(const Trajectory& stream, bool reference_kernel, PushRun* run) {
  BqsOptions options;
  options.epsilon = kEpsilon;
  const internal::KernelOracle oracle{.reference_kernel = reference_kernel};
  const ops::Snapshot before = ops::Read();
  Compressor compressor(options, oracle);
  (void)CompressAll(compressor, stream);
  run->op_delta = ops::Read().Delta(before);
  run->stats = compressor.stats();
}

int Run(int argc, char** argv) {
  if (const std::optional<int> code = bench::CheckArgs(
          argc, argv,
          "usage: bench_micro_ops [scale | --scale S] [--out PATH] "
          "[--reps N]",
          {"--out", "--reps"})) {
    return *code;
  }
  const double scale = bench::ScaleFromArgs(argc, argv, 0.35);
  const std::string out_path =
      bench::StringFlag(argc, argv, "--out", "BENCH_micro.json");
  const int reps = std::clamp(
      std::atoi(bench::StringFlag(argc, argv, "--reps", "5").c_str()), 1,
      1000);

  bench::Banner(
      "Micro ops — transcendental-free decision kernel vs the seed's "
      "atan2/sqrt path (classify, significant, compare, full push)",
      "ISSUE 4 acceptance: fast kernel byte-identical with zero atan2 on "
      "the conclusive path (op counters)",
      scale);

  bool all_match = true;
  bool yardstick_match = false;
  bench::JsonReport json;
  json.BeginObject();
  json.Key("schema").Value("bqs-bench-micro-v1");
  json.Key("scale").Value(scale);
  json.Key("reps").Value(reps);
  // The SIMD tier the batch screen ran under, so the perf gate knows
  // whether the per-row lane counters should show vector coverage (they
  // are legitimately all-scalar under BQS_FORCE_SCALAR or on non-x86).
  json.Key("simd_tier").Value(simd::TierName(simd::ActiveTier()));

  // -- classify ------------------------------------------------------------
  {
    const std::size_t n =
        static_cast<std::size_t>(2e6 * scale) | 1u;  // odd: vary axis cases.
    const std::vector<Vec2> pts = ClassifyInputs(n);
    uint64_t sum_sign = 0;
    uint64_t sum_atan2 = 0;
    const double ms_sign = BestMs(
        reps, [&] { sum_sign = ClassifyChecksum<&QuadrantOf>(pts); });
    const double ms_atan2 = BestMs(
        reps, [&] { sum_atan2 = ClassifyChecksum<&QuadrantOfAtan2>(pts); });
    const bool match = sum_sign == sum_atan2;
    all_match = all_match && match;
    std::printf("classify     : sign-test %7.2f ns/op, atan2 %7.2f ns/op "
                "(%.1fx), agree: %s\n",
                NsPerOp(ms_sign, n), NsPerOp(ms_atan2, n),
                ms_sign > 0.0 ? ms_atan2 / ms_sign : 0.0,
                match ? "yes" : "NO — DIVERGED");
    json.Key("classify").BeginObject();
    json.Key("n").Value(static_cast<uint64_t>(n));
    json.Key("signtest_ns_per_op").Value(NsPerOp(ms_sign, n));
    json.Key("atan2_ns_per_op").Value(NsPerOp(ms_atan2, n));
    json.Key("speedup").Value(ms_sign > 0.0 ? ms_atan2 / ms_sign : 0.0);
    json.Key("checksums_match").Value(match);
    json.EndObject();
  }

  // -- significant ---------------------------------------------------------
  {
    const std::size_t n = static_cast<std::size_t>(1e6 * scale) + 1;
    const QuadrantBound qb = MakeBound(3);
    double acc_cached = 0.0;
    double acc_recompute = 0.0;
    const double ms_cached = BestMs(reps, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += FoldSignificant(qb.Significant());
      acc_cached = acc;
    });
    const double ms_recompute = BestMs(reps, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += FoldSignificant(qb.ComputeSignificant());
      }
      acc_recompute = acc;
    });
    const uint64_t sum_cached =
        MixSignificant(bench::kFnvOffset, qb.Significant());
    const uint64_t sum_recompute =
        MixSignificant(bench::kFnvOffset, qb.ComputeSignificant());
    const bool match = sum_cached == sum_recompute && acc_cached == acc_recompute;
    all_match = all_match && match;
    std::printf("significant  : cached    %7.2f ns/op, rebuild %6.2f ns/op "
                "(%.1fx), agree: %s\n",
                NsPerOp(ms_cached, n), NsPerOp(ms_recompute, n),
                ms_cached > 0.0 ? ms_recompute / ms_cached : 0.0,
                match ? "yes" : "NO — DIVERGED");
    json.Key("significant").BeginObject();
    json.Key("n").Value(static_cast<uint64_t>(n));
    json.Key("cached_ns_per_query").Value(NsPerOp(ms_cached, n));
    json.Key("recompute_ns_per_query").Value(NsPerOp(ms_recompute, n));
    json.Key("speedup")
        .Value(ms_cached > 0.0 ? ms_recompute / ms_cached : 0.0);
    json.Key("checksums_match").Value(match);
    json.EndObject();
  }

  // -- compare -------------------------------------------------------------
  {
    const std::size_t n = static_cast<std::size_t>(4e5 * scale) + 1;
    const std::vector<CompareCase> cases = CompareInputs(n);
    uint64_t sum_sqrt = 0;
    uint64_t sum_sq = 0;
    const double ms_sqrt =
        BestMs(reps, [&] { sum_sqrt = CompareSqrtChecksum(cases); });
    const double ms_sq =
        BestMs(reps, [&] { sum_sq = CompareSquaredChecksum(cases); });
    const bool match = sum_sqrt == sum_sq;
    all_match = all_match && match;
    std::printf("compare      : squared   %7.2f ns/op, sqrt    %6.2f ns/op "
                "(%.1fx), agree: %s\n",
                NsPerOp(ms_sq, n), NsPerOp(ms_sqrt, n),
                ms_sq > 0.0 ? ms_sqrt / ms_sq : 0.0,
                match ? "yes" : "NO — DIVERGED");
    json.Key("compare").BeginObject();
    json.Key("n").Value(static_cast<uint64_t>(n));
    json.Key("squared_ns_per_decision").Value(NsPerOp(ms_sq, n));
    json.Key("sqrt_ns_per_decision").Value(NsPerOp(ms_sqrt, n));
    json.Key("speedup").Value(ms_sq > 0.0 ? ms_sqrt / ms_sq : 0.0);
    json.Key("decisions_match").Value(match);
    json.EndObject();
  }

  // -- push ----------------------------------------------------------------
  bool transcendental_free = true;
  {
    RandomWalkOptions walk_options;
    walk_options.num_points = static_cast<std::size_t>(60000 * scale) + 64;
    walk_options.seed = 7;
    const Trajectory walk = GenerateRandomWalk(walk_options);
    const Dataset empirical = BuildEmpiricalMergedDataset(scale);

    struct StreamCase {
      const char* name;
      const Trajectory* stream;
    };
    const StreamCase streams[] = {{"random_walk", &walk},
                                  {"empirical", &empirical.stream}};

    json.Key("push").BeginArray();
    std::optional<PushRun> yardstick;
    PushRun yardstick_bqs;  // fast BQS on the yardstick's stream
    for (const StreamCase& sc : streams) {
      std::vector<PushRow> rows;
      rows.push_back(PushRowFor<BqsCompressor>(sc.name, *sc.stream, "BQS",
                                               /*reference_kernel=*/false));
      rows.push_back(PushRowFor<BqsCompressor>(sc.name, *sc.stream, "BQS",
                                               /*reference_kernel=*/true));
      rows.push_back(PushRowFor<FbqsCompressor>(sc.name, *sc.stream, "FBQS",
                                                /*reference_kernel=*/false));
      rows.push_back(PushRowFor<FbqsCompressor>(sc.name, *sc.stream, "FBQS",
                                                /*reference_kernel=*/true));
      const bool with_yardstick = sc.stream == &walk;
      if (with_yardstick) {
        PushRow row;
        row.run.stream = sc.name;
        row.run.algorithm = "greedy";
        row.run.kernel = "yardstick";
        row.run.points = sc.stream->size();
        row.pass = [stream = sc.stream] {
          return BareExactGreedy(*stream, kEpsilon);
        };
        rows.push_back(std::move(row));
      }
      MeasureRoundRobin(rows, reps);
      std::vector<PushRun> runs;
      for (std::size_t i = 0; i < 4; ++i) runs.push_back(rows[i].run);
      CountPush<BqsCompressor>(*sc.stream, false, &runs[0]);
      CountPush<BqsCompressor>(*sc.stream, true, &runs[1]);
      CountPush<FbqsCompressor>(*sc.stream, false, &runs[2]);
      CountPush<FbqsCompressor>(*sc.stream, true, &runs[3]);
      if (with_yardstick) {
        yardstick = rows[4].run;
        yardstick_bqs = runs[0];
      }

      for (std::size_t i = 0; i < runs.size(); i += 2) {
        const PushRun& fast = runs[i];
        const PushRun& reference = runs[i + 1];
        const bool match = fast.checksum == reference.checksum;
        all_match = all_match && match;
        // The conclusive-path criterion: each counted fallback re-runs the
        // reference composition, which performs one atan2 per occupied
        // quadrant (<= 4). Anything beyond that budget means a
        // transcendental leaked back into the fast path.
        const bool clean =
            fast.op_delta.atan2_calls <= 4 * fast.stats.kernel_fallbacks;
        transcendental_free = transcendental_free && clean;
        std::printf(
            "push %-11s %4s: fast %8.0f pts/s (atan2 %llu, sqrt %llu, "
            "fallbacks %llu%s), reference %8.0f pts/s (atan2 %llu, sqrt "
            "%llu), %.1fx, %s\n",
            sc.name, fast.algorithm.c_str(), fast.points_per_sec,
            static_cast<unsigned long long>(fast.op_delta.atan2_calls),
            static_cast<unsigned long long>(fast.op_delta.sqrt_calls),
            static_cast<unsigned long long>(fast.stats.kernel_fallbacks),
            clean ? "" : " — TRANSCENDENTAL LEAK", reference.points_per_sec,
            static_cast<unsigned long long>(reference.op_delta.atan2_calls),
            static_cast<unsigned long long>(reference.op_delta.sqrt_calls),
            fast.best_ms > 0.0 ? reference.best_ms / fast.best_ms : 0.0,
            match ? "byte-identical" : "DIVERGED");
        for (const PushRun* run : {&fast, &reference}) {
          json.BeginObject();
          json.Key("stream").Value(run->stream);
          json.Key("algorithm").Value(run->algorithm);
          json.Key("kernel").Value(run->kernel);
          json.Key("points").Value(static_cast<uint64_t>(run->points));
          json.Key("best_ms").Value(run->best_ms);
          json.Key("points_per_sec").Value(run->points_per_sec);
          json.Key("checksum").Value(bench::HexChecksum(run->checksum));
          json.Key("atan2_calls").Value(run->op_delta.atan2_calls);
          json.Key("sqrt_calls").Value(run->op_delta.sqrt_calls);
          json.Key("significant_rebuilds")
              .Value(run->op_delta.significant_rebuilds);
          json.Key("kernel_fallbacks").Value(run->stats.kernel_fallbacks);
          json.Key("bound_decisions")
              .Value(run->stats.upper_bound_includes +
                     run->stats.lower_bound_splits);
          json.Key("batch_lanes4_points")
              .Value(run->op_delta.batch_lanes4_points);
          json.Key("batch_lanes2_points")
              .Value(run->op_delta.batch_lanes2_points);
          json.Key("batch_scalar_points")
              .Value(run->op_delta.batch_scalar_points);
          json.EndObject();
        }
      }
    }
    json.EndArray();

    if (yardstick) {
      yardstick_match = yardstick->checksum == yardstick_bqs.checksum;
      const double ratio = yardstick->best_ms > 0.0
                               ? yardstick_bqs.best_ms / yardstick->best_ms
                               : 0.0;
      std::printf(
          "yardstick %-11s: bare exact greedy %8.0f pts/s, fast BQS at "
          "%.2fx its time, %s\n",
          yardstick->stream.c_str(), yardstick->points_per_sec, ratio,
          yardstick_match ? "same keys" : "KEYS DIVERGED");
      json.Key("yardstick").BeginObject();
      json.Key("stream").Value(yardstick->stream);
      json.Key("algorithm").Value(yardstick->algorithm);
      json.Key("points").Value(static_cast<uint64_t>(yardstick->points));
      json.Key("best_ms").Value(yardstick->best_ms);
      json.Key("points_per_sec").Value(yardstick->points_per_sec);
      json.Key("checksum").Value(bench::HexChecksum(yardstick->checksum));
      json.Key("checksum_matches_bqs").Value(yardstick_match);
      json.Key("bqs_time_ratio").Value(ratio);
      json.EndObject();
    }
  }

  json.Key("fast_kernel_transcendental_free").Value(transcendental_free);
  json.Key("all_checksums_match").Value(all_match);
  json.EndObject();

  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!all_match) {
    std::fprintf(stderr,
                 "FAIL: fast-kernel output diverged from the reference\n");
    return 1;
  }
  if (!yardstick_match) {
    std::fprintf(stderr,
                 "FAIL: the yardstick's keys diverged from fast BQS's\n");
    return 1;
  }
  if (!transcendental_free) {
    std::fprintf(stderr,
                 "FAIL: fast kernel performed unaccounted transcendental "
                 "calls on the conclusive path\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) { return bqs::Run(argc, argv); }
