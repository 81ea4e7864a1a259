// The streaming engine behind BqsCompressor and FbqsCompressor: Algorithm 1
// of the paper plus data-centric rotation (Section V-D). The two public
// compressors differ only in how the inconclusive case
// (d_lb <= epsilon < d_ub) is resolved: BQS computes the exact deviation;
// FBQS aggressively splits, which removes all per-point state and makes
// per-point time and space O(1) (Section V-E).
//
// Per-point decision kernel: the engine classifies quadrants by coordinate
// sign tests, tracks angular extremes by cross products, reuses each
// quadrant's cached significant points, and compares squared deviations
// against epsilon^2 — no atan2 and no square root on the conclusive path.
// Comparisons inside a ~1e-12 relative guard band of the threshold (and
// degenerate/near-axis end vectors) re-run the reference transcendental
// composition, so decisions are bit-identical to the reference kernel by
// construction.
//
// Under the line metric, the kernel first tries a box-corner include
// pre-test (Theorem 5.2's whole-box upper bound plus a rounding margin,
// squared): when it clears epsilon the tight composition would include
// too, so the quadrant's invalidated significant-point cache is not
// rebuilt for that point.
//
// BQS's exact state is the flat segment buffer while the segment is short,
// migrating to an incrementally-maintained Melkman hull (O(h) resolves,
// O(h) space) at kHullMigrationPoints buffered points. Every flat buffer
// (the scan phase's, the flat phase's and the short warm-up's) is a
// FlatBuffer: points relative to the segment start as contiguous x and y
// arrays, which the SIMD max|cross| scan and the vector warm-up screen
// read in place.
//
// Scan phase: on short segments the bounding structures cost more than
// the exact scans they save, so BQS on the fast kernel under the line
// metric builds none until the flat buffer holds kScanPhasePoints points. Until then — the
// rotation warm-up, extended from rotation_warmup to kScanPhasePoints
// buffered points — every end, trivial or not, is decided by the
// squared-domain SIMD max|cross| verdict over the buffer (the
// sqrt-bearing rescan only inside its 1e-12 guard band), and runs of
// trivial ends stay on the vector lanes through the warm-up screen.
// PushBatch decides the scan phase in one loop (RunScanPhase: trivial
// test, verdict, append, split and restart), whose cost per fix is close
// to a bare exact greedy's over the same buffer; Push takes the same
// decisions through Assess. At
// kScanPhasePoints the rotation axis is fitted to the first
// rotation_warmup buffered points and all buffered points are replayed
// into the quadrants in arrival order, which is exactly the quadrant
// state a shorter warm-up would have built by then; the scans are exact,
// so no decision changes.
//
// After the scan phase, a box pre-test miss in the flat phase is settled
// by the same exact scan before any significant point is rebuilt: the
// tight bound composition leaves most such points inconclusive anyway.
// Only a verdict inside its guard band falls through to the tight bounds
// (then the reference composition, then the sqrt-bearing rescan). Sound
// bounds cannot contradict a decisive exact verdict, so the reordering
// never changes a decision. FBQS and the hull phase keep the paper's
// bounds-first order and the rotation_warmup-point warm-up, so a hull from
// the first point (KernelOracle::hull_migration = 1) runs Algorithm 1's
// order throughout; so do the reference kernel, any hull_migration up to
// kScanPhasePoints and data_centric_rotation = false. The point-to-segment
// metric keeps the short warm-up too: its scan is a scalar loop with no
// vector screen, and no bench measures a scan phase under it.
//
// KernelOracle is the test- and bench-only hook that selects the seed's
// transcendental reference kernel, moves the hull migration point
// (1: hull from the first point; SIZE_MAX: the paper's O(n)-per-resolve
// whole-buffer rescan), tunes or disables data-centric rotation, and
// turns on the paper-literal (unsound) Algorithm 1 rules. Those
// configurations exist only to be checksummed against or measured;
// production constructors never name the hook.
#ifndef BQS_CORE_SEGMENT_STATE_H_
#define BQS_CORE_SEGMENT_STATE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/simd.h"
#include "core/bounds.h"
#include "core/decision_stats.h"
#include "core/options.h"
#include "core/quadrant_bound.h"
#include "geometry/melkman_hull.h"
#include "trajectory/point.h"

namespace bqs {
namespace internal {

/// Buffered points at which BQS's exact state migrates from the flat
/// segment buffer into the Melkman hull. Measured on the empirical stream
/// (bench_throughput), whose segments peak below it: flat rescans of a few
/// dozen points beat Melkman maintenance (robust orientation tests per
/// insert) until segments grow into the hundreds, and the O(h)-resolve win
/// only dominates on adversarial segments growing into the thousands.
/// It thereby also caps the flat buffer the scan-before-bounds order
/// scans: with the flat buffer never migrating, scan-first measured no
/// slower than bounds-first on the adversarial drift stream up to 4,096
/// buffered points (4-core Xeon VM, AVX2), so that order needs no gate of
/// its own. A segment reaches it only after the scan phase
/// (kScanPhasePoints) has ended.
inline constexpr std::size_t kHullMigrationPoints = 256;

/// Buffered points at which BQS's scan phase ends and the quadrant bounds
/// are built (see the file comment). It caps the per-point scan at a
/// constant: at most K start-relative points, read by one SIMD pass.
/// Swept over 32..128 (4-core Xeon VM, AVX2): from 64 on, the
/// pipeline walks, the micro random walk and the vehicle stream ran about
/// 2x faster than without a scan phase and bat and empirical about
/// 1.3-1.6x; 32 and 48 gained less. 64, 96 and 128 were close, and 128
/// led 64 on the micro random walk (2.0x vs 1.86x the 8-point warm-up in
/// 8 interleaved runs), whose segments then never build a bound. The
/// adversarial drift, whose segments hold thousands of points, did not
/// move. A hull migration point at or below it turns the scan phase off.
inline constexpr std::size_t kScanPhasePoints = 128;

/// Upper limit for KernelOracle::rotation_warmup (the warm-up buffer is
/// reserved to it once, which keeps FBQS free of per-segment allocation).
inline constexpr int kMaxRotationWarmup = 16;

/// A segment's buffered points in the layout the exact scans read: x and
/// y relative to the segment start, each in one contiguous array
/// (structure of arrays). The relative value is the same IEEE subtraction
/// `p - start` the deviation scan's cross product needs, done once when
/// the point is buffered, so simd::MaxAbsCrossFn and the vector warm-up
/// screen read the arrays in place with no gather and no per-scan
/// subtraction. The absolute positions ride along for the readers that
/// need them: the hand-off into the hull, the point-to-segment metric and
/// the sqrt-bearing guard-band rescan.
class FlatBuffer {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const double* x() const { return xy_.get(); }
  const double* y() const { return xy_.get() + cap_; }
  /// Point i relative to the segment start.
  Vec2 rel(std::size_t i) const { return {x()[i], y()[i]}; }
  std::span<const Vec2> positions() const { return {pos_.get(), size_}; }

  void Push(Vec2 pos, Vec2 rel) {
    if (size_ == cap_) Reallocate(cap_ == 0 ? 1 : 2 * cap_);
    xy_[size_] = rel.x;
    xy_[cap_ + size_] = rel.y;
    pos_[size_] = pos;
    ++size_;
  }
  void Clear() { size_ = 0; }
  void Reserve(std::size_t n) {
    if (n > cap_) Reallocate(n);
  }
  std::size_t CapacityBytes() const {
    return cap_ * (2 * sizeof(double) + sizeof(Vec2));
  }
  /// Exact deviation of the buffered points against the path (a, b),
  /// point by point as BufferDeviation computes it.
  double Deviation(Vec2 a, Vec2 b, DistanceMetric metric) const;

 private:
  void Reallocate(std::size_t cap);

  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  /// x in [0, cap_), y in [cap_, 2 * cap_).
  std::unique_ptr<double[]> xy_;
  std::unique_ptr<Vec2[]> pos_;
};

/// Test/bench-only engine configuration: the oracles production output is
/// checksummed against, and the ablations the benches measure. Both
/// resolvers return the same maximum (it is attained at a hull vertex),
/// so the migration point changes scan costs, never a decision. Setting
/// either paper-literal field runs the reference kernel with the vector
/// screens off, so the fast kernel implements the sound rule alone.
struct KernelOracle {
  /// Run the seed's transcendental path: atan2 classification + angular
  /// tracking, significant points rebuilt per push, hypot-based distances
  /// compared against epsilon, literal whole-buffer rescans.
  bool reference_kernel = false;
  /// Buffered points at which the segment migrates into the hull: 1 keeps
  /// the hull from the first point, SIZE_MAX never migrates. The decisions
  /// never depend on it; the decision mix does, because BQS runs the scan
  /// phase only when this exceeds kScanPhasePoints and settles box
  /// pre-test misses with the flat-buffer scan only before migrating. With
  /// 1 every decision follows Algorithm 1's bounds-before-scan order,
  /// which is how the paper's pruning power (Fig. 6) is measured.
  std::size_t hull_migration = kHullMigrationPoints;
  /// Data-centric rotation (paper Section V-D): rotate the axes toward
  /// the first `rotation_warmup` out-of-epsilon points so the data splits
  /// across two quadrants and the hulls are tighter. false runs the
  /// quadrant system unrotated from the first point.
  bool data_centric_rotation = true;
  /// Out-of-epsilon points the rotation axis is fitted to. The paper
  /// suggests ~5; 8 is the default because a longer baseline reduces the
  /// rotation-estimate bias, which directly tightens the sound upper bound
  /// on straight runs. The warm-up ends at this many buffered points,
  /// except in BQS's scan phase, which runs on to kScanPhasePoints.
  /// Clamped to [1, kMaxRotationWarmup].
  int rotation_warmup = 8;
  /// Paper-faithful handling of points within epsilon of the segment
  /// start: Algorithm 1 includes them unconditionally (Theorem 5.1). That
  /// is sound for them as *interior* points but not as segment
  /// *endpoints*: if such a point ends a segment (split-at-previous or
  /// stream end), the deviation of the earlier buffered points against
  /// that end was never verified and the error bound can be exceeded.
  /// With this false (default), near-start points still skip all
  /// structure updates (the real content of Theorem 5.1) but run the O(1)
  /// bound check for end-validity.
  bool paper_trivial_include = false;
  /// Bound formulas; kPaperEq8 + paper_trivial_include together reproduce
  /// the paper's Algorithm 1 verbatim.
  BoundsMode bounds_mode = BoundsMode::kSound;

  /// True when either paper-literal rule is on.
  constexpr bool paper_literal() const {
    return paper_trivial_include || bounds_mode != BoundsMode::kSound;
  }
};

/// Observation of one bound-based decision, for instrumentation (Fig. 3).
struct BoundsProbe {
  uint64_t index = 0;        ///< Stream index of the assessed point.
  double lower = 0.0;        ///< Aggregated d_lb.
  double upper = 0.0;        ///< Aggregated d_ub.
  double actual = -1.0;      ///< Exact deviation; -1 when no exact state
                             ///< exists (fast mode) to compute it from.
  double epsilon = 0.0;      ///< Tolerance in force.
};

/// Single-stream state machine. Not thread-safe.
class SegmentEngine {
 public:
  /// `exact_mode` selects BQS (true: keep exact per-segment state, resolve
  /// inconclusive bounds) or FBQS (false: constant space, split on
  /// inconclusive bounds). `oracle` is for tests and benches only.
  SegmentEngine(const BqsOptions& options, bool exact_mode,
                const KernelOracle& oracle = {});

  void Reset();
  void Push(const TrackPoint& pt, std::vector<KeyPoint>* out);
  /// Batched ingest: identical decisions to per-point Push, but hoists the
  /// first-point setup, the probe dispatch and the per-point stats updates
  /// out of the loop, and pre-rotates whole runs of points into an SoA
  /// scratch (structure-of-arrays: rotated x, rotated y, |rel|^2) using the
  /// cached rotation cos/sin, so the decision loop reads straight-line
  /// precomputed values. This is the hot path CompressAll and the benches
  /// use.
  void PushBatch(std::span<const TrackPoint> pts, std::vector<KeyPoint>* out);
  void Finish(std::vector<KeyPoint>* out);

  const DecisionStats& stats() const { return stats_; }
  const BqsOptions& options() const { return options_; }
  bool exact_mode() const { return exact_mode_; }

  /// Heap bytes of growable per-segment state (brute-force buffer, hull,
  /// pending hull batch). 0 in fast mode, which keeps no such state. The
  /// PushBatch SoA scratch is excluded: it is constant-bounded working
  /// memory (kBatchChunk doubles per lane), not per-segment growth.
  std::size_t StateBytes() const {
    return buffer_.CapacityBytes() + hull_pending_.capacity() * sizeof(Vec2) +
           hull_.StateBytes();
  }

  /// Instrumentation hook invoked on every bound-based assessment. Keep it
  /// cheap or unset in production runs. While a probe is set, assessments
  /// take the reference composition (the probe reports bound values in
  /// metres); decisions are unchanged.
  void SetProbe(std::function<void(const BoundsProbe&)> probe) {
    probe_ = std::move(probe);
  }

  /// SoA scratch + screen state for the batch kernel, 32-byte aligned so
  /// the vector tiers can use full-width loads/stores on the lane arrays.
  /// Allocated lazily on the first prepared chunk.
  struct alignas(32) BatchScratch {
    static constexpr std::size_t kCapacity = 128;
    alignas(32) double rx[kCapacity];
    alignas(32) double ry[kCapacity];
    alignas(32) double nsq[kCapacity];
    /// Per-lane conclusive-include verdicts from the vector screen.
    unsigned char screen[kCapacity];
    /// Marshalled per-quadrant screen context (see MarshalScreenState).
    simd::ScreenState state;
    /// quad_epoch_ value `state` was marshalled against; 0 = never.
    uint64_t state_epoch = 0;
  };

  // --- Introspection for tests -------------------------------------------
  bool rotation_established() const { return rotation_established_; }
  /// SIMD tier the engine snapshotted at construction.
  simd::Tier batch_tier() const { return kernels_->tier; }
  /// Lazily-allocated batch scratch; null before the first prepared chunk.
  const BatchScratch* batch_scratch() const { return scratch_.get(); }
  double rotation_angle() const { return rotation_angle_; }
  /// Flat-buffer size before the hull migration point; 0 once the hull
  /// owns the segment.
  std::size_t buffer_size() const { return buffer_.size(); }
  /// Hull vertex count of the current segment (hull-owned segments only).
  std::size_t hull_size() const { return hull_.size(); }
  /// True when the current segment's exact state lives in the hull.
  bool hull_active() const { return hull_active_; }
  const QuadrantBound& quadrant(int q) const {
    return quadrants_[static_cast<std::size_t>(q)];
  }

 private:
  enum class Decision { kInclude, kSplit };
  /// Verdict of the fast kernel's aggregated threshold test.
  enum class FastOutcome {
    kInclude,
    kSplit,
    kInconclusive,
    kFallback,
    kExactInclude,
    kExactSplit
  };

  template <bool kProbed>
  void ProcessPoint(const TrackPoint& pt, uint64_t index,
                    std::vector<KeyPoint>* out, int depth);
  /// ProcessPoint for a batch point whose rotated frame was precomputed in
  /// the SoA scratch. On a split the point re-enters through the scalar
  /// ProcessPoint (the new segment has a different origin/rotation).
  template <bool kProbed>
  void ProcessPrepared(const TrackPoint& pt, uint64_t index, Vec2 rel_rot,
                       double rel_norm_sq, std::vector<KeyPoint>* out);
  template <bool kProbed>
  void RunBatch(std::span<const TrackPoint> pts, std::vector<KeyPoint>* out);
  /// The scan phase's batch loop: decides the leading points of `pts`
  /// (trivial test, warm-up verdict over the segment buffer, append,
  /// split and restart) until the span ends, the buffer reaches
  /// kScanPhasePoints (the rotation is then established), or a trivial
  /// fix meets an empty buffer on a vector tier (left to the fused
  /// trivial screen). Returns the number of points decided; adds to the
  /// lane counters. Decisions and stats equal per-point Push's.
  std::size_t RunScanPhase(std::span<const TrackPoint> pts,
                           std::vector<KeyPoint>* out,
                           uint64_t* screened_points, uint64_t* scalar_points);
  template <bool kProbed>
  Decision Assess(const TrackPoint& pt, uint64_t index);
  /// Assess() once the rotated frame and |rel|^2 are in hand (shared by the
  /// scalar and the SoA-prepared paths; both compute the inputs with the
  /// same expressions, so decisions are bit-identical).
  template <bool kProbed>
  Decision AssessPrepared(const TrackPoint& pt, uint64_t index, Vec2 rel_rot,
                          double rel_norm_sq);
  /// The bound-vs-epsilon decision core on the rotated end vector.
  template <bool kProbed>
  Decision AssessRotated(const TrackPoint& pt, uint64_t index, Vec2 rel_rot,
                         bool trivial);
  /// Aggregated fast-kernel bounds + squared threshold test. kFallback:
  /// guard band hit, degenerate end, or near-axis end — caller re-runs the
  /// reference composition. kExactInclude/kExactSplit: the flat-buffer
  /// scan decided a box pre-test miss (counted as an exact computation).
  /// *flat_band is set when that scan ran and landed in its guard band.
  FastOutcome FastAssess(Vec2 end_abs, Vec2 end_rel_rotated, double eps,
                         bool* flat_band);
  /// Sign-test quadrant classification with the sub-ulp axis-sliver
  /// deferral to the atan2 semantics (counts a kernel fallback).
  int FastClassify(Vec2 rel_rot);
  /// Classifies rel_rot once (per the active kernel's hoisted scheme) and
  /// folds it into its QuadrantBound. Shared by the include path and the
  /// warm-up replay in EstablishRotation.
  void AddToQuadrants(Vec2 rel_rot);
  /// Conclusive-include tail (d_ub <= eps) shared by both kernels.
  Decision IncludeByUpper(const TrackPoint& pt, Vec2 rel_rot, bool trivial);
  /// Inconclusive tail: exact resolve (BQS) or aggressive split (FBQS).
  /// flat_band: FastAssess's flat-buffer scan already landed in its guard
  /// band for this point, so the exact resolve skips straight to the
  /// sqrt-bearing rescan.
  Decision ResolveInconclusive(const TrackPoint& pt, Vec2 rel_rot,
                               bool trivial, bool flat_band);
  /// Applies an exact-resolve verdict (stats and state), shared by
  /// ResolveInconclusive and the scan-before-bounds path.
  Decision ApplyExactVerdict(const TrackPoint& pt, Vec2 rel_rot, bool trivial,
                             bool include);
  /// Squared-domain flat-buffer verdict against the path (segment start,
  /// end_abs): +1 include, -1 split, 0 guard band (a kernel fallback).
  int FlatBufferVerdict(Vec2 end_abs);
  /// FlatBufferVerdict with the guard band settled by the sqrt-bearing
  /// rescan: true when the point ending the segment at end_abs keeps
  /// every buffered point within epsilon.
  bool FlatBufferIncludes(Vec2 end_abs);
  void IncludeNonTrivial(const TrackPoint& pt, Vec2 rel_rot);
  /// Routes a buffered point (absolute pos, rel = pos - segment start)
  /// into the active exact structure: the flat buffer (migrating it into
  /// the hull at hull_migration_ points) or the Melkman hull.
  void AddExactPoint(Vec2 pos, Vec2 rel);
  void StartSegment(const TrackPoint& pt, uint64_t index);
  void EstablishRotation();
  void EmitKey(const TrackPoint& pt, uint64_t index,
               std::vector<KeyPoint>* out);
  /// rel mapped into the rotated quadrant frame; bit-identical to
  /// rel.Rotated(-rotation_angle_) but reuses the cached cos/sin instead of
  /// re-deriving them per point. The exact-identity shortcut matches the
  /// one in the vector prepare kernels (simd_lanes.h) so both paths emit
  /// the same bits even where 1.0 * x + 0.0 * y would rewrite a signed
  /// zero; it is the common case for every pre-rotation segment.
  Vec2 ToRotatedFrame(Vec2 rel) const {
    if (rot_sin_ == 0.0 && rot_cos_ == 1.0) return rel;
    return {rot_cos_ * rel.x + rot_sin_ * rel.y,
            -rot_sin_ * rel.x + rot_cos_ * rel.y};
  }
  /// Fills the SoA scratch with the rotated frame and |rel|^2 of `pts`
  /// against the current segment origin/rotation, through the active
  /// SIMD tier's pre-rotation kernel (the scalar tier runs the identical
  /// expressions lane by lane).
  void PrepareBatch(std::span<const TrackPoint> pts);
  /// Rebuilds the vector screen's per-quadrant context (candidate point
  /// sets, wedge guard flags, parity) from the current quadrant state.
  /// Called lazily when the screen observes a stale state_epoch; the
  /// wedge test and candidate selection are end-independent, which is
  /// what makes this a per-mutation (not per-point) cost.
  void MarshalScreenState();
  /// Points the vector screen at the warm-up buffer in place (its
  /// start-relative arrays are what the lane-parallel warm-up verdict
  /// reads), for the lanes screened before the buffer next grows. An
  /// empty warm-up buffer takes the fused trivial path instead.
  void AimWarmupScreen();
  /// Stages a buffered point for the hull. Hull maintenance is lazy: the
  /// point lands in a small pending batch (cap kHullDrainBatch, so space
  /// stays O(h)) and is only folded in when an exact resolve needs the
  /// hull — streams whose bounds stay conclusive never pay for hull
  /// construction at all.
  void AddHullPoint(Vec2 pos);
  void DrainPendingHull();
  /// Exact deviation of the current segment's interior points against the
  /// path (segment start, end_abs), over the hull or the flat buffer.
  /// Non-const: drains the pending hull batch.
  double ExactDeviation(Vec2 end_abs);
  /// The pre-rotation candidates every warm-up end is checked against:
  /// the segment buffer in the scan phase, warmup_ otherwise.
  const FlatBuffer& WarmupPoints() const {
    return scan_phase_ ? buffer_ : warmup_;
  }
  DeviationBounds AggregateBounds(Vec2 end_rel_rotated) const;

  BqsOptions options_;
  bool exact_mode_;
  /// Fast kernel: neither KernelOracle::reference_kernel nor a
  /// paper-literal field is set.
  bool fast_kernel_;
  /// BQS on the fast kernel under the line metric, with data-centric
  /// rotation and the hull migration past kScanPhasePoints: the rotation
  /// warm-up is the scan phase, buffering into buffer_ until it holds
  /// kScanPhasePoints.
  bool scan_phase_;
  std::size_t hull_migration_;  ///< KernelOracle::hull_migration.
  bool data_centric_rotation_;  ///< KernelOracle::data_centric_rotation.
  std::size_t rotation_warmup_;  ///< Clamped KernelOracle::rotation_warmup.
  bool paper_trivial_include_;  ///< KernelOracle::paper_trivial_include.
  BoundsMode bounds_mode_;      ///< KernelOracle::bounds_mode.
  /// Fast kernel under the line metric: the domain of the box-corner
  /// include pre-test (FastAssess), the squared-domain flat-buffer resolve
  /// (ResolveInconclusive) and, on a vector tier, the quadrant and warm-up
  /// screens.
  bool fast_line_ = false;
  DecisionStats stats_;

  bool have_first_ = false;
  uint64_t next_index_ = 0;
  TrackPoint segment_start_{};
  uint64_t segment_start_index_ = 0;
  TrackPoint prev_{};
  uint64_t prev_index_ = 0;
  uint64_t last_emitted_index_ = UINT64_MAX;

  bool rotation_established_ = false;
  double rotation_angle_ = 0.0;
  double rot_cos_ = 1.0;
  double rot_sin_ = 0.0;
  /// Warm-up buffer outside the scan phase (FBQS, the segment metric and
  /// the oracles), at most rotation_warmup_ points, start-relative like
  /// buffer_ so the warm-up screen reads it in place; the scan phase
  /// buffers into buffer_ instead. Reserved once at construction.
  FlatBuffer warmup_;

  std::array<QuadrantBound, 4> quadrants_;

  /// Incremental hull of the segment buffer (hull-owned segments). BQS-
  /// only: FBQS keeps no exact state of any kind (O(1) space).
  MelkmanHull hull_;
  /// True when the hull is the live exact structure for this segment
  /// (past the migration point).
  bool hull_active_ = false;
  /// Points staged for the hull but not yet folded in (lazy maintenance).
  static constexpr std::size_t kHullDrainBatch = 256;
  std::vector<Vec2> hull_pending_;

  /// Segment buffer: the scan phase's points, then the flat phase's up to
  /// the hull migration point; empty once the hull owns the segment.
  FlatBuffer buffer_;

  /// SoA scratch for PushBatch (see PrepareBatch and BatchScratch). The
  /// fill window starts at kBatchSeed after every split and grows fourfold
  /// per split-free chunk up to kBatchChunk, so split-heavy streams do not
  /// pay for discarded pre-rotation work.
  static constexpr std::size_t kBatchChunk = BatchScratch::kCapacity;
  static constexpr std::size_t kBatchSeed = 16;
  std::unique_ptr<BatchScratch> scratch_;
  std::size_t batch_fill_ = kBatchSeed;

  /// Kernel table snapshotted at construction (runtime CPUID dispatch +
  /// the BQS_FORCE_SCALAR override; see common/simd.h).
  const simd::KernelTable* kernels_;
  /// A vector tier is active and no paper-literal field is set: the fused
  /// pre-rotation trivial screen (empty warm-up buffer) applies under
  /// either kernel and metric.
  bool screen_vector_ = false;
  /// screen_vector_ under the fast kernel and the line metric: the
  /// quadrant and warm-up screens replicate exactly that scalar path, so
  /// only it is screened (the segment metric and the reference kernel
  /// stay scalar).
  bool screen_enabled_ = false;
  /// Lanes screened per screen_lanes call; a small multiple of the vector
  /// width, trading call overhead against re-screening after a mutation.
  std::size_t screen_group_ = 0;
  /// epsilon^2 with the same expression as the scalar trivial test.
  double trivial_eps_sq_ = 0.0;
  /// Monotone version of the decision state the screen depends on
  /// (bumped by AddToQuadrants, StartSegment, and warm-up buffer growth);
  /// screened-ahead verdicts and the marshalled screen context are valid
  /// only while it is unchanged.
  uint64_t quad_epoch_ = 0;

  std::function<void(const BoundsProbe&)> probe_;
};

}  // namespace internal
}  // namespace bqs

#endif  // BQS_CORE_SEGMENT_STATE_H_
