// Per-stream decision counters. These power the paper's pruning-power
// metric (Fig. 6) and the decision-mix analysis in EXPERIMENTS.md.
#ifndef BQS_CORE_DECISION_STATS_H_
#define BQS_CORE_DECISION_STATS_H_

#include <cstdint>

namespace bqs {

/// Counts how each pushed point was decided. One counter fires per point
/// (re-processing a point after a split does not double-count).
struct DecisionStats {
  uint64_t points = 0;                ///< Total points pushed.
  uint64_t trivial_includes = 0;      ///< Theorem 5.1: d(s,e) <= epsilon.
  uint64_t warmup_checks = 0;         ///< Exact checks over the warm-up
                                      ///< buffer before the rotation is
                                      ///< fixed: <=W points, or up to
                                      ///< kScanPhasePoints in BQS's scan
                                      ///< phase (line metric), where they
                                      ///< decide every end of a short
                                      ///< segment (their points count in
                                      ///< exact_points_scanned).
  uint64_t upper_bound_includes = 0;  ///< d_ub <= epsilon: include, no scan.
  uint64_t lower_bound_splits = 0;    ///< d_lb > epsilon: split, no scan.
  uint64_t exact_computations = 0;    ///< Decisive exact scans (BQS only):
                                      ///< inconclusive-bound resolves and
                                      ///< flat-buffer scans that settled a
                                      ///< box pre-test miss.
  uint64_t exact_includes = 0;        ///< Scans that allowed inclusion.
  uint64_t exact_splits = 0;          ///< Scans that forced a split.
  uint64_t uncertain_splits = 0;      ///< FBQS aggressive splits when
                                      ///< d_lb <= epsilon < d_ub.
  uint64_t segments = 0;              ///< Segments closed (splits).
  uint64_t exact_points_scanned = 0;  ///< Points examined across all exact
                                      ///< resolves: hull vertices once the
                                      ///< segment migrated into the hull,
                                      ///< whole-buffer points before (a
                                      ///< squared-domain verdict, or the
                                      ///< reference kernel's distance
                                      ///< rescan). The O(n^2)-vs-O(nh)
                                      ///< story in one number.
  uint64_t peak_exact_state = 0;      ///< Largest per-segment exact-resolve
                                      ///< structure (hull vertices or
                                      ///< buffered points) seen so far.
  uint64_t kernel_fallbacks = 0;      ///< Fast-kernel guard-band *events*
                                      ///< (not pushes — one push can log
                                      ///< several): a bound within ~1e-12
                                      ///< relative of epsilon, a near-axis
                                      ///< or degenerate end, a sliver
                                      ///< classification, or an extreme-
                                      ///< tracking tie band, each re-run
                                      ///< with the reference semantics.
                                      ///< 0 under the reference kernel.

  /// Paper definition: 1 - N_computed / N_total. Full-buffer scans only;
  /// warm-up checks touch a constant-size buffer and are reported
  /// separately (see PruningPowerInclWarmup). The paper's value (Fig. 6)
  /// is Algorithm 1's, bounds before any scan, which the fast kernel runs
  /// with the hull from the first point (internal::KernelOracle::
  /// hull_migration = 1). The default BQS kernel decides short segments
  /// by scans alone (counted as warm-up checks, so this value rises) and
  /// scans a short flat buffer instead of composing tight bounds after a
  /// box pre-test miss; PruningPowerInclWarmup is the fair comparison.
  double PruningPower() const {
    if (points == 0) return 1.0;
    return 1.0 - static_cast<double>(exact_computations) /
                     static_cast<double>(points);
  }

  /// Stricter variant counting warm-up mini-scans as computations.
  double PruningPowerInclWarmup() const {
    if (points == 0) return 1.0;
    return 1.0 - static_cast<double>(exact_computations + warmup_checks) /
                     static_cast<double>(points);
  }

  /// Fraction of points decided purely by bounds among bound-assessed ones.
  double BoundDecisiveness() const {
    const uint64_t assessed = upper_bound_includes + lower_bound_splits +
                              exact_computations + uncertain_splits;
    if (assessed == 0) return 1.0;
    return static_cast<double>(upper_bound_includes + lower_bound_splits) /
           static_cast<double>(assessed);
  }
};

}  // namespace bqs

#endif  // BQS_CORE_DECISION_STATS_H_
