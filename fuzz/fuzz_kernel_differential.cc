// Differential fuzzer for the per-point bound kernel: the production
// transcendental-free kernel must produce byte-identical key points to the
// reference kernel (the seed's atan2/hypot path, selected through
// internal::KernelOracle) for every options combination, hull migration
// point and input stream, and the vectorized batch screen must produce
// byte-identical output across SIMD tiers (scalar / SSE2 / AVX2) for the
// same stream. The kernel's guard-band fallback makes both invariants
// exact, not statistical, so any divergence is a bug — the harness aborts
// on the first mismatch.
//
// Input bytes drive: the options cube (epsilon, metric, and the oracle
// hook's rotation, warm-up length, trivial-include ablation, bounds mode
// and hull migration point — 1, a drawn 2..64, never, or the production
// kHullMigrationPoints — BQS vs FBQS) and one of three stream shapes
// aimed at the vector kernel's edge cases, optionally followed by a
// fourth. (A paper-literal draw runs the reference kernel on both sides,
// so it exercises the reference path and the cross-tier sweep only.)
//   0  bounded random walk (the original mixed regime);
//   1  stationary sliver run — a parked device jittering inside a small
//      fraction of epsilon with rare escape jumps, the regime that lives
//      entirely on the fused trivial-screen path;
//   2  lane-boundary splits — straight includable runs broken by forced
//      splits at byte-chosen periods, so splits land on every lane
//      offset of the 2- and 4-wide groups and chunk tails of every
//      residue get exercised;
//   3  scan-phase boundary drift (appended) — segments of about
//      kScanPhasePoints buffered points, so BQS segments end on both sides
//      of the point where its scan phase hands over to the bounds;
//   4  grid ties (appended) — axis-aligned runs on an integer or 1 mm
//      grid, epsilon rounded onto the grid, with a buffered point exactly
//      epsilon off each run's axis, so on-axis ends tie with epsilon.
// The production migration point and streams 3 and 4 were added after the
// committed corpus was written. They are drawn from the bytes a full
// (kMaxPoints) stream leaves unread, so every committed input, which runs
// dry inside its stream, decodes exactly as before.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/simd.h"
#include "core/bqs_compressor.h"
#include "core/fbqs_compressor.h"
#include "core/options.h"
#include "core/segment_state.h"
#include "fuzz_input.h"
#include "trajectory/compressor.h"
#include "trajectory/point.h"

namespace {

using bqs::internal::KernelOracle;
using bqs_fuzz::FuzzInput;
namespace simd = bqs::simd;

constexpr std::size_t kMaxPoints = 512;

bqs::CompressedTrajectory RunOne(const bqs::BqsOptions& options,
                                 const KernelOracle& oracle,
                                 bool use_fbqs,
                                 const std::vector<bqs::TrackPoint>& points) {
  if (use_fbqs) {
    bqs::FbqsCompressor compressor(options, oracle);
    return bqs::CompressAll(compressor, points);
  }
  bqs::BqsCompressor compressor(options, oracle);
  return bqs::CompressAll(compressor, points);
}

void ReportMismatch(const bqs::BqsOptions& options,
                    const KernelOracle& oracle, bool use_fbqs,
                    const std::vector<bqs::TrackPoint>& points,
                    const bqs::CompressedTrajectory& fast,
                    const bqs::CompressedTrajectory& reference) {
  std::fprintf(stderr,
               "kernel mismatch: algo=%s eps=%.6f metric=%d rot=%d warmup=%d "
               "trivial=%d bounds=%d migration=%zu points=%zu "
               "fast_keys=%zu ref_keys=%zu\n",
               use_fbqs ? "FBQS" : "BQS", options.epsilon,
               static_cast<int>(options.metric),
               oracle.data_centric_rotation ? 1 : 0, oracle.rotation_warmup,
               oracle.paper_trivial_include ? 1 : 0,
               static_cast<int>(oracle.bounds_mode), oracle.hull_migration,
               points.size(), fast.keys.size(), reference.keys.size());
  const std::size_t n = fast.keys.size() < reference.keys.size()
                            ? fast.keys.size()
                            : reference.keys.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!(fast.keys[i] == reference.keys[i])) {
      std::fprintf(stderr,
                   "  first divergence at key %zu: fast idx=%llu "
                   "(%.9f, %.9f) vs ref idx=%llu (%.9f, %.9f)\n",
                   i,
                   static_cast<unsigned long long>(fast.keys[i].index),
                   fast.keys[i].point.pos.x, fast.keys[i].point.pos.y,
                   static_cast<unsigned long long>(reference.keys[i].index),
                   reference.keys[i].point.pos.x,
                   reference.keys[i].point.pos.y);
      break;
    }
  }
  std::abort();
}

void ReportTierMismatch(simd::Tier tier, const bqs::BqsOptions& options,
                        const KernelOracle& oracle, bool use_fbqs,
                        const std::vector<bqs::TrackPoint>& points,
                        const bqs::CompressedTrajectory& native,
                        const bqs::CompressedTrajectory& forced) {
  std::fprintf(stderr,
               "tier mismatch vs %s: algo=%s eps=%.6f metric=%d rot=%d "
               "trivial=%d points=%zu native_keys=%zu forced_keys=%zu\n",
               simd::TierName(tier), use_fbqs ? "FBQS" : "BQS",
               options.epsilon, static_cast<int>(options.metric),
               oracle.data_centric_rotation ? 1 : 0,
               oracle.paper_trivial_include ? 1 : 0, points.size(),
               native.keys.size(), forced.keys.size());
  std::abort();
}

// Stationary sliver run: jitter inside jitter_frac * epsilon of an
// anchor, escaping by several epsilon every escape_every points. The
// trivial screen carries the whole run; escapes retire the segment and
// restart it with a fresh (empty-warm-up) origin.
std::vector<bqs::TrackPoint> StationaryStream(FuzzInput& in, double epsilon) {
  std::vector<bqs::TrackPoint> points;
  const double jitter = epsilon * in.Range(0.01, 0.45);
  const int escape_every = in.IntIn(9, 97);
  bqs::TrackPoint current;
  double anchor_x = 0.0;
  double anchor_y = 0.0;
  while (!in.empty() && points.size() < kMaxPoints) {
    if (static_cast<int>(points.size() + 1) % escape_every == 0) {
      anchor_x += epsilon * in.Range(2.0, 6.0);
      anchor_y += epsilon * in.Step(6.0);
    }
    current.pos.x = anchor_x + in.Step(jitter);
    current.pos.y = anchor_y + in.Step(jitter);
    current.t += in.Range(0.0, 2.0);
    points.push_back(current);
  }
  return points;
}

// Lane-boundary splits: straight includable steps, with a jump of
// 3 * epsilon perpendicular to the run every run_len points. Odd
// run_len values walk the split across every lane offset mod 2 and
// mod 4, and whatever length the byte budget yields leaves unaligned
// chunk tails behind each restart.
std::vector<bqs::TrackPoint> LaneBoundaryStream(FuzzInput& in,
                                                double epsilon) {
  std::vector<bqs::TrackPoint> points;
  const int run_len = in.IntIn(1, 19);
  const double step = epsilon * in.Range(0.05, 0.45);
  bqs::TrackPoint current;
  while (!in.empty() && points.size() < kMaxPoints) {
    if (static_cast<int>(points.size() + 1) % run_len == 0) {
      current.pos.y += 3.0 * epsilon;
    }
    current.pos.x += step;
    current.t += in.Range(0.0, 2.0);
    points.push_back(current);
  }
  return points;
}

// Scan-phase boundary drift: runs of kScanPhasePoints - 1 to + 3 steps
// longer than epsilon (so every point is buffered) along a drawn heading,
// with lateral noise under epsilon / 2 (so no run splits inside), each
// run ended by a sidestep of 3 * epsilon. The sidestep opens a one- or
// two-point segment, so the runs leave segments of about
// kScanPhasePoints - 3 to + 2 buffered points. Appended to `points`.
void AppendScanBoundaryStream(FuzzInput& in, double epsilon,
                              std::vector<bqs::TrackPoint>* points) {
  const double heading = in.Range(0.0, 6.283185307179586);
  const bqs::Vec2 dir{std::cos(heading), std::sin(heading)};
  const bqs::Vec2 normal{-dir.y, dir.x};
  const double step = epsilon * in.Range(1.05, 2.0);
  bqs::TrackPoint current =
      points->empty() ? bqs::TrackPoint{} : points->back();
  bqs::Vec2 base = current.pos;
  const std::size_t limit = points->size() + kMaxPoints;
  const auto run_base =
      static_cast<int>(bqs::internal::kScanPhasePoints) - 1;
  while (!in.empty() && points->size() < limit) {
    const int run = run_base + in.U8() % 5;
    for (int j = 0; j < run && !in.empty() && points->size() < limit; ++j) {
      base = base + dir * step;
      current.pos = base + normal * in.Step(0.4 * epsilon);
      current.t += in.Range(0.0, 2.0);
      points->push_back(current);
    }
    base = base + normal * (3.0 * epsilon);
  }
}

// Grid ties: axis-aligned runs turning by exactly 90 degrees, on an
// integer or 1 mm grid with epsilon rounded onto the same grid. Most points
// sit on the run's axis; one buffered point per run sits exactly epsilon
// off it, so every later on-axis end ties with epsilon (exactly on the
// integer grid, to rounding on the 1 mm one). The exact verdict includes
// a tie, and a bound within the guard band of epsilon must defer to it.
// Appended to `points` after a 3 * epsilon sidestep; sets `*epsilon`.
void AppendGridTieStream(FuzzInput& in, double* epsilon,
                         std::vector<bqs::TrackPoint>* points) {
  const double grid = in.Bool() ? 1.0 : 0.001;
  const auto snap = [grid](double v) { return std::round(v / grid) * grid; };
  const double eps = std::max(grid, snap(*epsilon));
  *epsilon = eps;
  bqs::TrackPoint current =
      points->empty() ? bqs::TrackPoint{} : points->back();
  bqs::Vec2 base{snap(current.pos.x), snap(current.pos.y + 3.0 * eps)};
  bqs::Vec2 dir{1.0, 0.0};
  const std::size_t limit = points->size() + kMaxPoints;
  const int longest = static_cast<int>(bqs::internal::kScanPhasePoints) + 3;
  while (!in.empty() && points->size() < limit) {
    const bqs::Vec2 normal{-dir.y, dir.x};
    const double step = std::max(grid, snap(eps * in.Range(0.3, 2.0)));
    const int run = in.IntIn(2, longest);
    const int tie_at = in.IntIn(1, run - 1);
    const double side = in.Bool() ? eps : -eps;
    for (int j = 1; j <= run && !in.empty() && points->size() < limit; ++j) {
      base = base + dir * step;
      double lateral = 0.0;
      if (j == tie_at) {
        lateral = side;
      } else if (j < run && in.U8() % 4 == 0) {
        lateral = snap(in.Step(0.5 * eps));
      }
      current.pos = base + normal * lateral;
      current.t += 1.0;
      points->push_back(current);
    }
    dir = bqs::Vec2{-dir.y, dir.x};  // exactly 90 degrees
  }
}

std::vector<bqs::TrackPoint> RandomWalkStream(FuzzInput& in, double epsilon) {
  std::vector<bqs::TrackPoint> points;
  bqs::TrackPoint current;
  const double step_limit = epsilon * 4.0;
  while (!in.empty() && points.size() < kMaxPoints) {
    current.pos.x += in.Step(step_limit);
    current.pos.y += in.Step(step_limit);
    current.t += in.Range(0.0, 2.0);
    current.velocity = {in.Step(16.0), in.Step(16.0)};
    points.push_back(current);
  }
  return points;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);

  bqs::BqsOptions options;
  options.epsilon = in.Range(0.25, 64.0);
  options.metric = in.Bool() ? bqs::DistanceMetric::kPointToSegment
                             : bqs::DistanceMetric::kPointToLine;
  KernelOracle fast_oracle;
  fast_oracle.data_centric_rotation = in.Bool();
  fast_oracle.rotation_warmup = in.IntIn(1, bqs::internal::kMaxRotationWarmup);
  fast_oracle.paper_trivial_include = in.Bool();
  fast_oracle.bounds_mode =
      in.Bool() ? bqs::BoundsMode::kPaperEq8 : bqs::BoundsMode::kSound;
  // Hull migration point, drawn in the byte order of the committed corpus:
  // the choice, then a low threshold (forcing the flat buffer -> hull
  // migration inside short fuzz streams) that only choice 0 uses.
  const int migration_choice = in.IntIn(0, 2);
  const auto drawn_migration = static_cast<std::size_t>(in.IntIn(2, 64));
  fast_oracle.hull_migration = SIZE_MAX;
  if (migration_choice == 0) fast_oracle.hull_migration = drawn_migration;
  if (migration_choice == 1) fast_oracle.hull_migration = 1;
  const bool use_fbqs = in.Bool();

  std::vector<bqs::TrackPoint> points;
  switch (in.IntIn(0, 2)) {
    case 1:
      points = StationaryStream(in, options.epsilon);
      break;
    case 2:
      points = LaneBoundaryStream(in, options.epsilon);
      break;
    default:
      // Bounded random walk: steps up to ~4x epsilon so streams mix
      // trivially-included, prunable, and splitting points.
      points = RandomWalkStream(in, options.epsilon);
      break;
  }
  if (in.Bool()) {
    fast_oracle.hull_migration = bqs::internal::kHullMigrationPoints;
  }
  if (in.Bool()) AppendScanBoundaryStream(in, options.epsilon, &points);
  if (in.Bool()) AppendGridTieStream(in, &options.epsilon, &points);

  KernelOracle reference_oracle = fast_oracle;
  reference_oracle.reference_kernel = true;

  const bqs::CompressedTrajectory fast =
      RunOne(options, fast_oracle, use_fbqs, points);
  const bqs::CompressedTrajectory reference =
      RunOne(options, reference_oracle, use_fbqs, points);

  if (!(fast.keys == reference.keys)) {
    ReportMismatch(options, fast_oracle, use_fbqs, points, fast, reference);
  }

  // Cross-tier sweep: the fast kernel's output must not depend on which
  // SIMD tier ran the batch screen. Each forced tier is clamped to what
  // the CPU supports, so on non-AVX2 hosts some of these degenerate to
  // re-running the same tier — harmless. (A forced tier outranks the
  // BQS_FORCE_SCALAR env knob, so under the CI forced-scalar job the
  // native run above is scalar while this sweep still drives the
  // hardware tiers — the differential holds in both directions.)
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kSse2, simd::Tier::kAvx2}) {
    const simd::ScopedForceTier guard(tier);
    const bqs::CompressedTrajectory forced =
        RunOne(options, fast_oracle, use_fbqs, points);
    if (!(forced.keys == fast.keys)) {
      ReportTierMismatch(tier, options, fast_oracle, use_fbqs, points, fast,
                         forced);
    }
  }
  return 0;
}
