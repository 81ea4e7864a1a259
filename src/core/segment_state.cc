#include "core/segment_state.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "common/math_utils.h"
#include "common/op_counters.h"
#include "geometry/angle.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace internal {

namespace {

// The prepare kernels read incoming points as a flat double array: x and
// y leading each TrackPoint, simd::kPointStrideDoubles doubles apart.
static_assert(offsetof(TrackPoint, pos) == 0 &&
                  offsetof(Vec2, y) == sizeof(double),
              "TrackPoint must lead with its x, y coordinates");
static_assert(sizeof(TrackPoint) == simd::kPointStrideDoubles * sizeof(double),
              "simd::kPointStrideDoubles must match the TrackPoint stride");

/// The coordinate array the prepare kernels read for `pts`.
const double* PointCoords(const TrackPoint* pts) { return &pts->pos.x; }

/// True when v lies within the sub-ulp sliver of a coordinate axis where
/// the sign-test classifier and the reference's atan2+fmod formula can
/// disagree (the fmod normalization absorbs angles within ~half an ulp of
/// a pi/2 multiple into the boundary; see QuadrantOf). Exactly-on-axis
/// vectors (a zero coordinate) agree by design and are not slivers. The
/// 1e-12 window is ~1e4 times wider than the actual disagreement band.
/// Not hypothetical: data-centric rotation of a stationary or perfectly
/// straight run lands rel vectors exactly here (TLS axis through
/// collinear points leaves rounding-level residuals).
bool NearAxisSliver(Vec2 v) {
  const double ax = std::fabs(v.x);
  const double ay = std::fabs(v.y);
  const double mn = std::min(ax, ay);
  return mn != 0.0 && mn <= 1e-12 * std::max(ax, ay);
}

constexpr double kBandLo = 1.0 - 1e-12;
constexpr double kBandHi = 1.0 + 1e-12;

/// Squared-domain line-metric verdict for a flat scan of `buf` against
/// the end d (relative to the segment start, like the buffered points):
/// +1 when the maximum deviation is definitely <= eps, -1 when definitely
/// greater, 0 inside a ~1e-12 relative guard band of the threshold or for
/// a degenerate end (caller recomputes with the reference scan). The
/// per-point value is the same |cross| candidate the sqrt-bearing scan
/// would feed into its max, so the verdict matches the reference
/// comparison outside the band by monotonicity.
int LineVerdict(const FlatBuffer& buf, Vec2 d, double eps_sq,
                const simd::KernelTable& kernels) {
  if (d == Vec2{0.0, 0.0}) return 0;  // degenerate: reference semantics.
  // max over |d x (p - a)| through the active SIMD tier: max over fabs
  // values is associative/commutative bitwise, so the lane-parallel
  // reduction returns the same bits as the scalar scan.
  double vmax = kernels.max_abs_cross(buf.x(), buf.y(), buf.size(), d.x, d.y);
  vmax *= vmax;
  const double threshold = eps_sq * d.NormSq();
  if (vmax <= threshold * kBandLo) return 1;
  if (vmax > threshold * kBandHi) return -1;
  return 0;
}

/// LineVerdict under either metric, against the path (a, b).
int SquaredDeviationVerdict(const FlatBuffer& buf, Vec2 a, Vec2 b,
                            DistanceMetric metric, double eps_sq,
                            const simd::KernelTable& kernels) {
  if (metric == DistanceMetric::kPointToLine) {
    return LineVerdict(buf, b - a, eps_sq, kernels);
  }
  double vmax = 0.0;
  for (const Vec2 p : buf.positions()) {
    vmax = std::max(vmax, PointToSegmentDistanceSq(p, a, b));
  }
  if (vmax <= eps_sq * kBandLo) return 1;
  if (vmax > eps_sq * kBandHi) return -1;
  return 0;
}

}  // namespace

void FlatBuffer::Reallocate(std::size_t cap) {
  std::unique_ptr<double[]> xy(new double[2 * cap]);
  std::unique_ptr<Vec2[]> pos(new Vec2[cap]);
  std::copy(x(), x() + size_, xy.get());
  std::copy(y(), y() + size_, xy.get() + cap);
  std::copy(pos_.get(), pos_.get() + size_, pos.get());
  xy_ = std::move(xy);
  pos_ = std::move(pos);
  cap_ = cap;
}

double FlatBuffer::Deviation(Vec2 a, Vec2 b, DistanceMetric metric) const {
  double dev = 0.0;
  for (const Vec2 p : positions()) {
    dev = std::max(dev, PointDeviation(p, a, b, metric));
  }
  return dev;
}

SegmentEngine::SegmentEngine(const BqsOptions& options, bool exact_mode,
                             const KernelOracle& oracle)
    : options_(options),
      exact_mode_(exact_mode),
      fast_kernel_(!oracle.reference_kernel && !oracle.paper_literal()),
      scan_phase_(exact_mode && fast_kernel_ &&
                  options.metric == DistanceMetric::kPointToLine &&
                  oracle.data_centric_rotation &&
                  oracle.hull_migration > kScanPhasePoints),
      hull_migration_(oracle.hull_migration),
      data_centric_rotation_(oracle.data_centric_rotation),
      // An out-of-range warm-up length would index past the fixed warm-up
      // buffer: asserted below, clamped as a release-mode backstop.
      rotation_warmup_(static_cast<std::size_t>(
          std::clamp(oracle.rotation_warmup, 1, kMaxRotationWarmup))),
      paper_trivial_include_(oracle.paper_trivial_include),
      bounds_mode_(oracle.bounds_mode),
      quadrants_{QuadrantBound(0), QuadrantBound(1), QuadrantBound(2),
                 QuadrantBound(3)},
      kernels_(&simd::KernelsFor(simd::ActiveTier())) {
  // Misconfiguration is a caller bug (BqsOptions::Validate() rejects it),
  // but nothing forces callers through Validate(), so assert in debug.
  assert(options_.Validate().ok());
  assert(oracle.rotation_warmup >= 1 &&
         oracle.rotation_warmup <= kMaxRotationWarmup);
  trivial_eps_sq_ = options_.epsilon * options_.epsilon;
  fast_line_ = fast_kernel_ && options_.metric == DistanceMetric::kPointToLine;
  // The fused pre-rotation screen replicates the trivial include of an
  // empty warm-up buffer, which is kernel- and metric-independent. The
  // quadrant and warm-up screens replicate the fast kernel's line-metric
  // decisions; the segment metric keeps per-point directional state, so
  // it stays on the scalar path. The paper-literal rules are never
  // screened.
  screen_vector_ =
      kernels_->tier != simd::Tier::kScalar && !oracle.paper_literal();
  screen_enabled_ = screen_vector_ && fast_line_;
  // Screen a few vector-widths per call: enough lanes to amortize the
  // dispatch-call overhead, few enough that a quadrant mutation (which
  // invalidates screened-ahead verdicts) discards little work.
  screen_group_ = 8 * kernels_->lanes;
  if (!scan_phase_) warmup_.Reserve(kMaxRotationWarmup);
  Reset();
}

void SegmentEngine::Reset() {
  stats_ = DecisionStats{};
  have_first_ = false;
  next_index_ = 0;
  segment_start_ = TrackPoint{};
  segment_start_index_ = 0;
  prev_ = TrackPoint{};
  prev_index_ = 0;
  last_emitted_index_ = UINT64_MAX;
  batch_fill_ = kBatchSeed;
  StartSegment(TrackPoint{}, 0);
}

void SegmentEngine::Push(const TrackPoint& pt, std::vector<KeyPoint>* out) {
  const uint64_t index = next_index_++;
  ++stats_.points;
  if (!have_first_) {
    have_first_ = true;
    EmitKey(pt, index, out);
    StartSegment(pt, index);
    return;
  }
  if (probe_) {
    ProcessPoint<true>(pt, index, out, 0);
  } else {
    ProcessPoint<false>(pt, index, out, 0);
  }
}

void SegmentEngine::PushBatch(std::span<const TrackPoint> pts,
                              std::vector<KeyPoint>* out) {
  if (pts.empty()) return;
  if (!have_first_) {
    have_first_ = true;
    const uint64_t index = next_index_++;
    ++stats_.points;
    EmitKey(pts[0], index, out);
    StartSegment(pts[0], index);
    pts = pts.subspan(1);
    if (pts.empty()) return;
  }
  stats_.points += pts.size();
  if (probe_) {
    RunBatch<true>(pts, out);
  } else {
    RunBatch<false>(pts, out);
  }
}

void SegmentEngine::PrepareBatch(std::span<const TrackPoint> pts) {
  if (!scratch_) scratch_ = std::make_unique<BatchScratch>();
  // Straight-line SoA transform through the active tier's pre-rotation
  // kernel: the origin subtraction, the cached-cos/sin rotation and
  // |rel|^2 use the same expressions as the scalar path (Assess) on every
  // tier, so the prepared values are bit-identical to what Push would
  // compute point by point.
  const Vec2 origin = segment_start_.pos;
  kernels_->prepare_rotated(PointCoords(pts.data()), pts.size(), origin.x,
                            origin.y, rot_cos_, rot_sin_, scratch_->rx,
                            scratch_->ry, scratch_->nsq);
}

template <bool kProbed>
void SegmentEngine::RunBatch(std::span<const TrackPoint> pts,
                             std::vector<KeyPoint>* out) {
  std::size_t i = 0;
  const std::size_t n = pts.size();
  // Lane accounting is accumulated locally and bulk-flushed once per
  // batch so the fast path never touches an atomic per point.
  uint64_t screened_points = 0;
  uint64_t scalar_points = 0;
  while (i < n) {
    if (!rotation_established_) {
      if constexpr (!kProbed) {
        // Pre-rotation chunks. Stationary runs spend their whole life
        // here: trivial points never feed the warm-up buffer, so a
        // parked device's segment never establishes a rotation — which
        // makes this path, not the rotated screen, the volume carrier
        // on stop-and-go streams.
        if (screen_vector_ && WarmupPoints().empty()) {
          // Trivial-only screen: with an empty warm-up buffer the decision
          // for a trivial lane is the trivial test itself, so the fused
          // kernel computes it in one pass with no SoA stores and no
          // separate screen call.
          const std::size_t chunk = std::min(n - i, batch_fill_);
          if (!scratch_) scratch_ = std::make_unique<BatchScratch>();
          BatchScratch& s = *scratch_;
          const Vec2 origin = segment_start_.pos;
          kernels_->prepare_trivial(PointCoords(pts.data() + i), chunk,
                                    origin.x, origin.y, trivial_eps_sq_,
                                    s.screen);
          const uint64_t seg_mark = segment_start_index_;
          bool split = false;
          std::size_t j = 0;
          while (j < chunk) {
            if (s.screen[j] != 0) {
              // Run of trivial lanes: include in bulk. Trivial includes
              // mutate no decision state on this path.
              std::size_t k = j + 1;
              while (k < chunk && s.screen[k] != 0) ++k;
              const std::size_t m = k - j;
              stats_.trivial_includes += m;
              next_index_ += m;
              prev_ = pts[i + k - 1];
              prev_index_ = next_index_ - 1;
              screened_points += m;
              j = k;
              continue;
            }
            ProcessPoint<kProbed>(pts[i + j], next_index_++, out, 0);
            ++scalar_points;
            ++j;
            split = segment_start_index_ != seg_mark;
            if (split || rotation_established_ || !WarmupPoints().empty()) {
              // The origin moved, the frame changed, or trivial lanes now
              // need the warm-up verdict: the fused verdicts are stale.
              break;
            }
          }
          i += j;
          // Same fill adaptation as the rotated loop; establishment is
          // expected once per segment and does not shrink the window.
          batch_fill_ =
              split ? kBatchSeed : std::min(batch_fill_ * 4, kBatchChunk);
          continue;
        }
        if (scan_phase_) {
          i += RunScanPhase(pts.subspan(i), out, &screened_points,
                            &scalar_points);
          continue;
        }
        if (screen_enabled_) {
          // Warm-up screen: trivial lanes must pass the warm-up deviation
          // verdict against the buffered candidates. A group of lanes is
          // prepared and screened only from a trivial lane on, so runs of
          // out-of-epsilon fixes (each decided by the scalar scan) prepare
          // nothing. The frame is still the identity rotation, so the
          // prepared rx/ry are exactly the unrotated rel the verdict
          // consumes, and nsq is the trivial test's own |rel|^2.
          const std::size_t chunk = n - i;
          const uint64_t seg_mark = segment_start_index_;
          bool split = false;
          std::size_t group_start = 0;
          std::size_t screened_until = 0;
          std::size_t j = 0;
          while (j < chunk) {
            if (j >= screened_until &&
                (pts[i + j].pos - segment_start_.pos).NormSq() <=
                    trivial_eps_sq_) {
              const std::size_t g = std::min(chunk - j, screen_group_);
              PrepareBatch(pts.subspan(i + j, g));
              BatchScratch& s = *scratch_;
              AimWarmupScreen();
              kernels_->screen_lanes(s.state, s.rx, s.ry, s.nsq, g, s.screen);
              group_start = j;
              screened_until = j + g;
            }
            if (j < screened_until && scratch_->screen[j - group_start] != 0) {
              const unsigned char* verdict = scratch_->screen;
              std::size_t k = j + 1;
              while (k < screened_until && verdict[k - group_start] != 0) ++k;
              const std::size_t m = k - j;
              // Replicated scalar effects: each lane passed the warm-up
              // check and was a trivial include.
              stats_.warmup_checks += m;
              stats_.trivial_includes += m;
              next_index_ += m;
              prev_ = pts[i + k - 1];
              prev_index_ = next_index_ - 1;
              screened_points += m;
              j = k;
              continue;
            }
            const uint64_t epoch_mark = quad_epoch_;
            ProcessPoint<kProbed>(pts[i + j], next_index_++, out, 0);
            ++scalar_points;
            ++j;
            split = segment_start_index_ != seg_mark;
            if (split || rotation_established_) {
              // A split moved the origin; establishment changed the
              // frame. The prepared values are stale either way.
              break;
            }
            if (quad_epoch_ != epoch_mark) screened_until = j;
          }
          i += j;
          batch_fill_ =
              split ? kBatchSeed : std::min(batch_fill_ * 4, kBatchChunk);
          continue;
        }
      }
      // Probe runs and unscreenable configurations: the scalar path,
      // point by point.
      ProcessPoint<kProbed>(pts[i], next_index_++, out, 0);
      ++scalar_points;
      ++i;
      continue;
    }
    const std::size_t chunk = std::min(n - i, batch_fill_);
    PrepareBatch(pts.subspan(i, chunk));
    BatchScratch& s = *scratch_;
    const uint64_t seg_mark = segment_start_index_;
    bool stale = false;
    std::size_t j = 0;
    // Lanes in [0, screened_until) hold screen verdicts computed against
    // the current quadrant state; a mutation invalidates the remainder.
    std::size_t screened_until = 0;
    while (j < chunk) {
      if constexpr (!kProbed) {
        if (screen_enabled_) {
          // Lazy group screen, gated on lane j being trivial: streams
          // with few trivial points never pay for the screen at all. A
          // screened group still resolves its non-trivial lanes (verdict
          // 2 under kQuadrant mode), so mixed trivial/non-trivial runs
          // harvest vector decisions for both kinds.
          if (j >= screened_until && s.nsq[j] <= trivial_eps_sq_) {
            if (s.state_epoch != quad_epoch_) MarshalScreenState();
            const std::size_t g = std::min(chunk - j, screen_group_);
            kernels_->screen_lanes(s.state, s.rx + j, s.ry + j, s.nsq + j, g,
                                   s.screen + j);
            screened_until = j + g;
          }
          if (j < screened_until && s.screen[j] == 1) {
            // Run of conclusively-included trivial lanes: apply the
            // scalar per-lane effects in bulk. Trivial includes never
            // mutate the quadrant/exact state, so the whole run only
            // advances the stream cursor and the stats counter.
            std::size_t k = j + 1;
            while (k < screened_until && s.screen[k] == 1) ++k;
            const std::size_t m = k - j;
            stats_.trivial_includes += m;
            next_index_ += m;
            prev_ = pts[i + k - 1];
            prev_index_ = next_index_ - 1;
            screened_points += m;
            j = k;
            continue;
          }
          if (j < screened_until && s.screen[j] == 2) {
            // Non-trivial conclusive include: the vector proof implies
            // FastAssess would return kInclude, so skip the scalar bound
            // composition and apply IncludeByUpper's effects directly.
            // The quadrant add can mutate decision state, invalidating
            // screened-ahead verdicts like any scalar-lane mutation.
            const uint64_t epoch_mark = quad_epoch_;
            ++stats_.upper_bound_includes;
            IncludeNonTrivial(pts[i + j], Vec2{s.rx[j], s.ry[j]});
            prev_ = pts[i + j];
            prev_index_ = next_index_++;
            ++screened_points;
            ++j;
            if (quad_epoch_ != epoch_mark) screened_until = j;
            continue;
          }
        }
      }
      const uint64_t epoch_mark = quad_epoch_;
      ProcessPrepared<kProbed>(pts[i + j], next_index_++,
                               Vec2{s.rx[j], s.ry[j]}, s.nsq[j], out);
      ++scalar_points;
      ++j;
      if (segment_start_index_ != seg_mark || !rotation_established_) {
        // A split moved the segment origin (and possibly reset the
        // rotation): the remaining prepared values are stale.
        stale = true;
        break;
      }
      if (quad_epoch_ != epoch_mark) {
        // The lane mutated the quadrant state: screened-ahead verdicts
        // no longer reflect it.
        screened_until = j;
      }
    }
    i += j;
    // Adaptive fill window: grow while chunks run to completion, shrink
    // after a split so split-heavy streams discard little prepared work.
    // (A split on the chunk's last element is still a split — the flag,
    // not j == chunk, decides.)
    batch_fill_ = stale ? kBatchSeed : std::min(batch_fill_ * 4, kBatchChunk);
  }
  ops::CountBatchLanePoints(kernels_->lanes, screened_points);
  ops::CountBatchScalarPoints(scalar_points);
}

void SegmentEngine::MarshalScreenState() {
  simd::ScreenState& st = scratch_->state;
  st.num_quads = 0;
  st.eps_sq = trivial_eps_sq_;
  st.mode = simd::ScreenMode::kQuadrant;
  // Per occupied quadrant, precompute the two candidate sets whose
  // max |end x p| reproduces QuadrantFastBounds' upper bound for any end:
  // the in-quadrant composition (intersections, angular extremes, near/far
  // and wedge-interior corners — duplicates are harmless under max) and
  // the out-of-quadrant corner composition. The wedge test is
  // end-independent, so its guard band collapses to one flag: lanes whose
  // end lands in a blocked quadrant are left to the scalar path, which
  // re-runs the per-point test and takes the reference fallback exactly as
  // an unscreened push would.
  for (const QuadrantBound& q : quadrants_) {
    if (q.empty()) continue;
    const QuadrantBound::SignificantPoints& sig = q.Significant();
    simd::ScreenQuadrant& sq = st.quads[st.num_quads++];
    sq.parity = q.quadrant() & 1;
    int count = 0;
    const auto add_in = [&sq, &count](Vec2 p) {
      sq.in_px[count] = p.x;
      sq.in_py[count] = p.y;
      ++count;
    };
    add_in(sig.l1);
    add_in(sig.l2);
    add_in(sig.u1);
    add_in(sig.u2);
    add_in(sig.min_angle_point);
    add_in(sig.max_angle_point);
    // Wedge classification comes cached with the significant points
    // (end-independent; see ComputeSignificant), so the marshal and the
    // per-point composition agree by construction.
    sq.wedge_blocked = !sig.wedge_ok;
    for (std::size_t k = 0; k < 4; ++k) {
      sq.out_px[k] = sig.corners[k].x;
      sq.out_py[k] = sig.corners[k].y;
      if (k == sig.near_corner_index || k == sig.far_corner_index ||
          sig.corner_in_wedge[k]) {
        add_in(sig.corners[k]);
      }
    }
    sq.in_count = count;
  }
  scratch_->state_epoch = quad_epoch_;
}

void SegmentEngine::AimWarmupScreen() {
  simd::ScreenState& st = scratch_->state;
  const FlatBuffer& warm = WarmupPoints();
  st.eps_sq = trivial_eps_sq_;
  st.mode = simd::ScreenMode::kWarmup;
  st.warm_px = warm.x();
  st.warm_py = warm.y();
  st.warm_count = static_cast<int>(warm.size());
  // The quadrant context is no longer marshalled (quad_epoch_ is never 0).
  scratch_->state_epoch = 0;
}

std::size_t SegmentEngine::RunScanPhase(std::span<const TrackPoint> pts,
                                        std::vector<KeyPoint>* out,
                                        uint64_t* screened_points,
                                        uint64_t* scalar_points) {
  // Assess's scan-phase branch and ProcessPoint's split, fused into one
  // loop over the batch: per fix, the trivial test, the warm-up verdict
  // over the segment buffer (sqrt-bearing rescan only in its guard band),
  // then the include (a non-trivial one is appended) or the split, after
  // which the same fix is decided again against the new, empty segment.
  // Every counter ends where the per-point path leaves it; the hot ones
  // are kept in locals and folded into stats_ when the loop leaves.
  const double eps = options_.epsilon;
  const double eps_sq = trivial_eps_sq_;
  const std::size_t n = pts.size();
  Vec2 origin = segment_start_.pos;
  uint64_t checks = 0;
  uint64_t scanned = 0;
  uint64_t trivials = 0;
  uint64_t decided = 0;
  // The last fix included by this call; prev_ catches up with it before a
  // split reads it and when the loop leaves.
  const TrackPoint* last = nullptr;
  const auto sync_prev = [&] {
    if (last != nullptr) {
      prev_ = *last;
      prev_index_ = next_index_ - 1;
      last = nullptr;
    }
  };
  // Lanes in [group_start, screened_until) hold warm-up screen verdicts
  // against the current origin and buffer; an append or a split ends
  // them.
  std::size_t group_start = 0;
  std::size_t screened_until = 0;
  std::size_t j = 0;
  while (j < n) {
    const TrackPoint& pt = pts[j];
    const Vec2 rel = pt.pos - origin;
    const bool trivial = rel.NormSq() <= eps_sq;
    const std::size_t buffered = buffer_.size();
    if (buffered == 0) {
      // Nothing buffered: a trivial fix is included by the trivial test
      // alone, which the fused screen runs lane-parallel.
      if (trivial && screen_vector_) break;
    } else {
      if (trivial && screen_enabled_) {
        // Trivial fixes leave the buffer unchanged, so a group of them is
        // screened against it in one vector pass, from this fix on.
        if (j >= screened_until) {
          const std::size_t g = std::min(n - j, screen_group_);
          PrepareBatch(pts.subspan(j, g));
          AimWarmupScreen();
          BatchScratch& s = *scratch_;
          kernels_->screen_lanes(s.state, s.rx, s.ry, s.nsq, g, s.screen);
          group_start = j;
          screened_until = j + g;
        }
        const unsigned char* verdict = scratch_->screen;
        if (verdict[j - group_start] != 0) {
          std::size_t k = j + 1;
          while (k < screened_until && verdict[k - group_start] != 0) ++k;
          const std::size_t m = k - j;
          checks += m;
          trivials += m;
          scanned += m * buffered;
          next_index_ += m;
          last = &pts[k - 1];
          *screened_points += m;
          j = k;
          continue;
        }
      }
      ++checks;
      scanned += buffered;
      int verdict = LineVerdict(buffer_, rel, eps_sq, *kernels_);
      if (verdict == 0) {
        ++stats_.kernel_fallbacks;
        verdict = buffer_.Deviation(origin, pt.pos,
                                    DistanceMetric::kPointToLine) > eps
                      ? -1
                      : 1;
      }
      if (verdict < 0) {
        // Split: the previous fix ends the segment and starts the next;
        // this fix is decided again against it.
        sync_prev();
        stats_.peak_exact_state =
            std::max<uint64_t>(stats_.peak_exact_state, buffered);
        EmitKey(prev_, prev_index_, out);
        ++stats_.segments;
        StartSegment(prev_, prev_index_);
        origin = segment_start_.pos;
        screened_until = j;
        continue;
      }
    }
    if (trivial) {
      ++trivials;
    } else {
      buffer_.Push(pt.pos, rel);
      screened_until = j;
    }
    last = &pt;
    ++next_index_;
    ++decided;
    ++j;
    if (buffer_.size() >= kScanPhasePoints) break;
  }
  sync_prev();
  // The buffer only grows within a segment: its size now is the peak.
  stats_.peak_exact_state =
      std::max<uint64_t>(stats_.peak_exact_state, buffer_.size());
  stats_.warmup_checks += checks;
  stats_.exact_points_scanned += scanned;
  stats_.trivial_includes += trivials;
  *scalar_points += decided;
  // Buffer growth is screen-visible state (the per-point path bumps the
  // epoch at every append; nothing reads it inside this loop).
  ++quad_epoch_;
  if (buffer_.size() >= kScanPhasePoints) EstablishRotation();
  return j;
}

void SegmentEngine::Finish(std::vector<KeyPoint>* out) {
  if (have_first_ && prev_index_ != last_emitted_index_) {
    EmitKey(prev_, prev_index_, out);
  }
}

template <bool kProbed>
void SegmentEngine::ProcessPoint(const TrackPoint& pt, uint64_t index,
                                 std::vector<KeyPoint>* out, int depth) {
  // A point can be re-processed at most once: after a split the new segment
  // contains no interior points, so the second assessment always includes.
  assert(depth <= 1);
  const Decision decision = Assess<kProbed>(pt, index);
  if (decision == Decision::kInclude) {
    prev_ = pt;
    prev_index_ = index;
    return;
  }
  // Split: the previous point becomes a key point ending the current
  // segment; the new segment starts there and `pt` re-enters (Fig. 1(d)).
  EmitKey(prev_, prev_index_, out);
  ++stats_.segments;
  StartSegment(prev_, prev_index_);
  ProcessPoint<kProbed>(pt, index, out, depth + 1);
}

template <bool kProbed>
void SegmentEngine::ProcessPrepared(const TrackPoint& pt, uint64_t index,
                                    Vec2 rel_rot, double rel_norm_sq,
                                    std::vector<KeyPoint>* out) {
  if (AssessPrepared<kProbed>(pt, index, rel_rot, rel_norm_sq) ==
      Decision::kInclude) {
    prev_ = pt;
    prev_index_ = index;
    return;
  }
  EmitKey(prev_, prev_index_, out);
  ++stats_.segments;
  StartSegment(prev_, prev_index_);
  // The prepared frame died with the old segment; re-enter scalar.
  ProcessPoint<kProbed>(pt, index, out, 1);
}

template <bool kProbed>
SegmentEngine::Decision SegmentEngine::Assess(const TrackPoint& pt,
                                              uint64_t index) {
  const Vec2 rel = pt.pos - segment_start_.pos;
  const double eps = options_.epsilon;

  // Theorem 5.1: a point within epsilon of the start can never *itself*
  // deviate by more than epsilon from any path out of the start, so it
  // never enters the bounding structures or the buffer. It may still end
  // the segment later, so by default it must pass the same end-validity
  // assessment as any other candidate end (see KernelOracle::
  // paper_trivial_include for the paper's unconditional include).
  const bool trivial = rel.NormSq() <= eps * eps;
  if (trivial && paper_trivial_include_) {
    ++stats_.trivial_includes;
    return Decision::kInclude;
  }

  if (!rotation_established_) {
    // Rotation warm-up (Section V-D): every out-of-epsilon point is
    // buffered and each end is checked exactly against the buffer, which
    // stays short: rotation_warmup_ points, or kScanPhasePoints in BQS's
    // scan phase (whose buffer is the segment buffer itself).
    const FlatBuffer& warm = WarmupPoints();
    if (!warm.empty()) {
      ++stats_.warmup_checks;
      if (scan_phase_) {
        if (!FlatBufferIncludes(pt.pos)) return Decision::kSplit;
      } else {
        // Fast kernel: the scan runs in the squared domain (one sqrt-free
        // pass; the reference scan only on a guard-band hit).
        int verdict = 0;
        if (fast_kernel_) {
          verdict = SquaredDeviationVerdict(warm, segment_start_.pos, pt.pos,
                                            options_.metric, trivial_eps_sq_,
                                            *kernels_);
          if (verdict == 0) ++stats_.kernel_fallbacks;
        }
        if (verdict < 0) return Decision::kSplit;
        if (verdict == 0 &&
            warm.Deviation(segment_start_.pos, pt.pos, options_.metric) > eps) {
          return Decision::kSplit;
        }
      }
    }
    if (trivial) {
      ++stats_.trivial_includes;
      return Decision::kInclude;
    }
    // The warm-up buffer is screen-visible state: growing it invalidates
    // screened-ahead pre-rotation verdicts (they were computed against
    // the smaller candidate set).
    ++quad_epoch_;
    if (scan_phase_) {
      AddExactPoint(pt.pos, rel);
      if (buffer_.size() >= kScanPhasePoints) EstablishRotation();
      return Decision::kInclude;
    }
    warmup_.Push(pt.pos, rel);
    if (exact_mode_) {
      // Warm-up points are segment-buffer points: they must be visible to
      // every later exact resolve. FBQS has no exact state at all — its
      // warm-up checks scan warmup_ directly.
      AddExactPoint(pt.pos, rel);
    }
    if (warmup_.size() >= rotation_warmup_) {
      EstablishRotation();
    }
    return Decision::kInclude;
  }

  return AssessRotated<kProbed>(pt, index, ToRotatedFrame(rel), trivial);
}

template <bool kProbed>
SegmentEngine::Decision SegmentEngine::AssessPrepared(const TrackPoint& pt,
                                                      uint64_t index,
                                                      Vec2 rel_rot,
                                                      double rel_norm_sq) {
  // Prepared points only exist for established segments, so this is
  // Assess() minus the warm-up branch, on precomputed inputs.
  const double eps = options_.epsilon;
  const bool trivial = rel_norm_sq <= eps * eps;
  if (trivial && paper_trivial_include_) {
    ++stats_.trivial_includes;
    return Decision::kInclude;
  }
  return AssessRotated<kProbed>(pt, index, rel_rot, trivial);
}

template <bool kProbed>
SegmentEngine::Decision SegmentEngine::AssessRotated(const TrackPoint& pt,
                                                     uint64_t index,
                                                     Vec2 rel_rot,
                                                     bool trivial) {
  const double eps = options_.epsilon;

  // Fast kernel: squared-domain threshold test, no transcendentals. A set
  // probe forces the reference composition (it reports bounds in metres);
  // kProbed implies probe_ is set, so the branch folds at compile time.
  bool flat_band = false;
  if constexpr (!kProbed) {
    if (fast_kernel_) {
      switch (FastAssess(pt.pos, rel_rot, eps, &flat_band)) {
        case FastOutcome::kInclude:
          return IncludeByUpper(pt, rel_rot, trivial);
        case FastOutcome::kSplit:
          ++stats_.lower_bound_splits;
          return Decision::kSplit;
        case FastOutcome::kInconclusive:
          return ResolveInconclusive(pt, rel_rot, trivial, flat_band);
        case FastOutcome::kExactInclude:
          return ApplyExactVerdict(pt, rel_rot, trivial, true);
        case FastOutcome::kExactSplit:
          return ApplyExactVerdict(pt, rel_rot, trivial, false);
        case FastOutcome::kFallback:
          ++stats_.kernel_fallbacks;
          break;  // re-decide via the reference composition below.
      }
    }
  }

  const DeviationBounds bounds = AggregateBounds(rel_rot);

  if constexpr (kProbed) {
    if (probe_) {
      BoundsProbe probe;
      probe.index = index;
      probe.lower = bounds.lower;
      probe.upper = bounds.upper;
      probe.epsilon = eps;
      probe.actual = exact_mode_ ? ExactDeviation(pt.pos) : -1.0;
      probe_(probe);
    }
  }

  // BQS gives the bounds the exact scan's guard band: a bound within 1e-12
  // relative of eps decides nothing, and the exact verdict settles the tie
  // (it includes at dev == eps), so keys never depend on which of the two
  // decided. FBQS has no exact state and keeps the plain comparisons.
  const double band = exact_mode_ ? 1e-12 * eps : 0.0;
  if (bounds.upper <= eps - band) {
    // Guaranteed within tolerance: include without any deviation scan.
    return IncludeByUpper(pt, rel_rot, trivial);
  }
  if (bounds.lower > eps + band) {
    // Guaranteed to break tolerance: split without any deviation scan.
    ++stats_.lower_bound_splits;
    return Decision::kSplit;
  }
  return ResolveInconclusive(pt, rel_rot, trivial, flat_band);
}

SegmentEngine::FastOutcome SegmentEngine::FastAssess(Vec2 end_abs, Vec2 end,
                                                     double eps,
                                                     bool* flat_band) {
  // Degenerate ends (duplicate fixes) force the reference's Theorem 5.5
  // branch, before anything else.
  if (end == Vec2{0.0, 0.0}) return FastOutcome::kFallback;

  // Threshold test in the squared domain: the reference compares
  // max|cross|/|end| (resp. hypot distances) against eps; squaring both
  // sides is exact in real arithmetic, and every floating-point
  // discrepancy between the two formulations is bounded well under the
  // 1e-12 relative guard band, inside which we defer to the reference.
  const bool line = options_.metric == DistanceMetric::kPointToLine;
  const double eps_sq = eps * eps;
  const double threshold = line ? eps_sq * end.NormSq() : eps_sq;
  constexpr double kBandLo = 1.0 - 1e-12;
  constexpr double kBandHi = 1.0 + 1e-12;

  // Box-corner include pre-test (see BoxCrossUpper): when even the loose
  // whole-box bound clears the band, the tight composition would include
  // too (or fall back to a reference check that includes), so decide
  // without the significant points. On moving streams most includes grow
  // a box; this keeps the invalidated cache stale instead of rebuilding it.
  if (fast_line_) {
    double box_upper = 0.0;
    for (const QuadrantBound& q : quadrants_) {
      if (q.empty()) continue;
      box_upper = std::max(box_upper, BoxCrossUpper(q.box(), end));
    }
    if (box_upper * box_upper <= threshold * kBandLo) {
      return FastOutcome::kInclude;
    }
    // Box miss in BQS's flat-buffer phase: the exact scan is cheaper than
    // rebuilding the significant points, and the tight bounds it would
    // replace are inconclusive for most such points anyway. A decisive
    // verdict is the decision (sound bounds cannot contradict it); a guard
    // band verdict falls through to the bounds-first path unchanged.
    if (exact_mode_ && !hull_active_) {
      const int verdict = FlatBufferVerdict(end_abs);
      if (verdict == 0) {
        *flat_band = true;
      } else {
        ++stats_.exact_computations;
        return verdict > 0 ? FastOutcome::kExactInclude
                           : FastOutcome::kExactSplit;
      }
    }
  }

  // Near-axis ends (direction within 1e-12 relative of an axis, but not
  // exactly on it) are where the reference's atan2-normalizing in-quadrant
  // test can round onto a quadrant boundary that the sign tests resolve
  // exactly (see QuadrantOf); they take the reference path. The guard is
  // ~1e4x wider than the actual disagreement sliver (~5e-16). Neither step
  // above classifies the end, so it only guards the tight composition.
  if (NearAxisSliver(end)) return FastOutcome::kFallback;

  const int end_q = QuadrantOf(end);
  FastQuadrantBounds agg;
  for (const QuadrantBound& q : quadrants_) {
    if (q.empty()) continue;
    // Line metric: an undirected line lies in the two opposite quadrants of
    // matching parity. Segment metric: the in-quadrant property is
    // directional (paper Section V-G) — the end's own quadrant only.
    const bool in_q = line ? (end_q & 1) == (q.quadrant() & 1)
                           : end_q == q.quadrant();
    agg.MergeMax(QuadrantFastBounds(q, end, in_q, options_.metric));
    if (!agg.ok) return FastOutcome::kFallback;
  }

  const double upper_sq = line ? agg.upper * agg.upper : agg.upper;
  if (upper_sq <= threshold * kBandLo) return FastOutcome::kInclude;
  if (upper_sq <= threshold * kBandHi) return FastOutcome::kFallback;
  const double lower_sq = line ? agg.lower * agg.lower : agg.lower;
  if (lower_sq > threshold * kBandHi) return FastOutcome::kSplit;
  if (lower_sq > threshold * kBandLo) return FastOutcome::kFallback;
  return FastOutcome::kInconclusive;
}

int SegmentEngine::FastClassify(Vec2 rel_rot) {
  // The sign tests are the classifier; points inside the sub-ulp axis
  // sliver defer to the reference's atan2 semantics (bit-compatibility
  // with the transcendental path), counted like any other guard-band
  // fallback.
  if (NearAxisSliver(rel_rot)) {
    ++stats_.kernel_fallbacks;
    return QuadrantOfAtan2(rel_rot);
  }
  return QuadrantOf(rel_rot);
}

SegmentEngine::Decision SegmentEngine::IncludeByUpper(const TrackPoint& pt,
                                                      Vec2 rel_rot,
                                                      bool trivial) {
  if (trivial) {
    ++stats_.trivial_includes;
  } else {
    ++stats_.upper_bound_includes;
    IncludeNonTrivial(pt, rel_rot);
  }
  return Decision::kInclude;
}

SegmentEngine::Decision SegmentEngine::ResolveInconclusive(
    const TrackPoint& pt, Vec2 rel_rot, bool trivial, bool flat_band) {
  if (!exact_mode_) {
    // FBQS (Section V-E): when uncertain, aggressively take the point and
    // start a new segment — no buffer, no full deviation calculation.
    ++stats_.uncertain_splits;
    return Decision::kSplit;
  }

  // BQS: resolve exactly — over the hull vertices of the segment buffer
  // (O(h), the deviation maximum is attained there) or, before the
  // migration point, over the flat buffer (O(n)).
  ++stats_.exact_computations;
  bool include;
  if (fast_line_ && !hull_active_) {
    // Flat-buffer phase under the fast kernel: the same sqrt-free SIMD
    // verdict as the warm-up check; the sqrt-bearing rescan runs only
    // inside its guard band. The reference kernel keeps the literal
    // rescan (it is the oracle this path is checked against). A band
    // verdict FastAssess already took is not scanned (or counted) again.
    include = flat_band ? ExactDeviation(pt.pos) <= options_.epsilon
                        : FlatBufferIncludes(pt.pos);
  } else {
    const double dev = ExactDeviation(pt.pos);  // drains the pending batch
    stats_.exact_points_scanned +=
        hull_active_ ? hull_.size() : buffer_.size();
    include = dev <= options_.epsilon;
  }
  return ApplyExactVerdict(pt, rel_rot, trivial, include);
}

int SegmentEngine::FlatBufferVerdict(Vec2 end_abs) {
  stats_.exact_points_scanned += buffer_.size();
  const int verdict = SquaredDeviationVerdict(
      buffer_, segment_start_.pos, end_abs, options_.metric, trivial_eps_sq_,
      *kernels_);
  if (verdict == 0) ++stats_.kernel_fallbacks;
  return verdict;
}

bool SegmentEngine::FlatBufferIncludes(Vec2 end_abs) {
  const int verdict = FlatBufferVerdict(end_abs);
  if (verdict != 0) return verdict > 0;
  return buffer_.Deviation(segment_start_.pos, end_abs, options_.metric) <=
         options_.epsilon;
}

SegmentEngine::Decision SegmentEngine::ApplyExactVerdict(const TrackPoint& pt,
                                                         Vec2 rel_rot,
                                                         bool trivial,
                                                         bool include) {
  if (include) {
    if (trivial) {
      ++stats_.trivial_includes;
    } else {
      ++stats_.exact_includes;
      IncludeNonTrivial(pt, rel_rot);
    }
    return Decision::kInclude;
  }
  ++stats_.exact_splits;
  return Decision::kSplit;
}

void SegmentEngine::AddToQuadrants(Vec2 rel_rot) {
  // Every quadrant mutation funnels through here (or StartSegment's
  // reset); the epoch bump below is what invalidates the vector screen's
  // marshalled context and screened-ahead verdicts. The fast kernel skips
  // the bump for adds that provably change no bounding geometry (interior
  // points), which keeps screen state hot through dense traffic.
  // Hoisted classification (one per point): the fast kernel needs no angle
  // at all — sign tests pick the quadrant and AddCross tracks extremes by
  // cross products; the reference kernel computes its one atan2 here and
  // shares it between classification and the angular-extreme update.
  if (fast_kernel_) {
    bool changed = false;
    if (quadrants_[static_cast<std::size_t>(FastClassify(rel_rot))].AddCross(
            rel_rot, &changed)) {
      ++stats_.kernel_fallbacks;  // extreme-tracking tie-band deferral.
    }
    if (changed) ++quad_epoch_;
  } else {
    ++quad_epoch_;
    ops::CountAtan2();
    const double theta = NormalizeAngle2Pi(std::atan2(rel_rot.y, rel_rot.x));
    quadrants_[static_cast<std::size_t>(ThetaQuadrant(theta))].AddWithAngle(
        rel_rot, theta);
  }
}

void SegmentEngine::IncludeNonTrivial(const TrackPoint& pt, Vec2 rel_rot) {
  AddToQuadrants(rel_rot);
  if (exact_mode_) AddExactPoint(pt.pos, pt.pos - segment_start_.pos);
}

void SegmentEngine::AddExactPoint(Vec2 pos, Vec2 rel) {
  if (hull_active_) {
    AddHullPoint(pos);
    return;
  }
  buffer_.Push(pos, rel);
  stats_.peak_exact_state =
      std::max<uint64_t>(stats_.peak_exact_state, buffer_.size());
  if (buffer_.size() >= hull_migration_) {
    // Migration point: hand the segment to the hull. Feeding the buffer in
    // arrival order makes the hull state identical to a run that migrated
    // at the first point, and the resolvers agree exactly on the deviation
    // maximum, so the switch never changes a decision.
    for (const Vec2 p : buffer_.positions()) AddHullPoint(p);
    buffer_.Clear();
    hull_active_ = true;
  }
}

void SegmentEngine::AddHullPoint(Vec2 pos) {
  hull_pending_.push_back(pos);
  if (hull_pending_.size() >= kHullDrainBatch) DrainPendingHull();
  stats_.peak_exact_state = std::max<uint64_t>(
      stats_.peak_exact_state, hull_.size() + hull_pending_.size());
}

void SegmentEngine::DrainPendingHull() {
  for (const Vec2 p : hull_pending_) hull_.Add(p);
  hull_pending_.clear();
}

void SegmentEngine::StartSegment(const TrackPoint& pt, uint64_t index) {
  ++quad_epoch_;  // quadrants reset below: stale screen state must die.
  segment_start_ = pt;
  segment_start_index_ = index;
  prev_ = pt;
  prev_index_ = index;
  rotation_angle_ = 0.0;
  rot_cos_ = 1.0;
  rot_sin_ = 0.0;
  // Without data-centric rotation the quadrant system is active (unrotated)
  // from the first point on; with it, warm-up gathers points first.
  rotation_established_ = !data_centric_rotation_;
  warmup_.Clear();
  for (QuadrantBound& q : quadrants_) q.Reset();
  hull_.Clear();
  hull_pending_.clear();
  buffer_.Clear();
  hull_active_ = false;
  if (exact_mode_) {
    // The warm-up points land here before any split can happen; reserving
    // them up front avoids the first few reallocations of every segment.
    buffer_.Reserve(rotation_warmup_);
  }
}

void SegmentEngine::EstablishRotation() {
  // Rotate the +x axis onto the warm-up points' principal direction so the
  // data straddles the first and fourth quadrants, tightening both hulls
  // (paper Section V-D / Fig. 4). The paper rotates toward the centroid;
  // we use the total-least-squares axis through the segment start (the
  // start is on the path by construction), which estimates the direction
  // of a noisy straight run with far less bias — and the bound tightness
  // of the rotated frame degrades linearly with that bias.
  // The axis is fitted to the first rotation_warmup_ buffered points;
  // the scan phase buffers further points before the quadrants exist, and
  // replaying them all in arrival order leaves the quadrants exactly as
  // adding each at its include would have.
  const FlatBuffer& warm = WarmupPoints();
  Vec2 centroid{0.0, 0.0};
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;
  const std::size_t fit = std::min(warm.size(), rotation_warmup_);
  for (std::size_t i = 0; i < fit; ++i) {
    const Vec2 rel = warm.rel(i);
    centroid += rel;
    sxx += rel.x * rel.x;
    syy += rel.y * rel.y;
    sxy += rel.x * rel.y;
  }
  if (centroid == Vec2{0.0, 0.0}) {
    rotation_angle_ = 0.0;
  } else {
    double axis = 0.5 * std::atan2(2.0 * sxy, sxx - syy);
    // The principal axis is undirected; orient it toward the data.
    if (std::cos(axis) * centroid.x + std::sin(axis) * centroid.y < 0.0) {
      axis += kPi;
    }
    rotation_angle_ = axis;
  }
  rot_cos_ = std::cos(rotation_angle_);
  rot_sin_ = std::sin(rotation_angle_);
  rotation_established_ = true;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    AddToQuadrants(ToRotatedFrame(warm.rel(i)));
  }
  warmup_.Clear();
}

void SegmentEngine::EmitKey(const TrackPoint& pt, uint64_t index,
                            std::vector<KeyPoint>* out) {
  out->push_back(KeyPoint{pt, index});
  last_emitted_index_ = index;
}

double SegmentEngine::ExactDeviation(Vec2 end_abs) {
  if (hull_active_) {
    DrainPendingHull();
    return hull_.MaxDeviation(segment_start_.pos, end_abs, options_.metric);
  }
  return buffer_.Deviation(segment_start_.pos, end_abs, options_.metric);
}

DeviationBounds SegmentEngine::AggregateBounds(Vec2 end_rel_rotated) const {
  DeviationBounds bounds;  // (0, 0): correct when every quadrant is empty.
  for (const QuadrantBound& q : quadrants_) {
    if (q.empty()) continue;
    // The fast kernel's fallback path reuses the cached significant points
    // (bit-identical to a recompute); the reference kernel recomputes them
    // per push, which is the seed's honest cost profile.
    const QuadrantBound::SignificantPoints* sig =
        fast_kernel_ ? &q.Significant() : nullptr;
    bounds.MergeMax(QuadrantDeviationBounds(q, end_rel_rotated,
                                            options_.metric, bounds_mode_,
                                            sig));
  }
  return bounds;
}

}  // namespace internal
}  // namespace bqs
