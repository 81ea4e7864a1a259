// The control loop shared by the 3-D and 4-D BQS (paper Section V-G and its
// closing 4-D extension). Each point relative to the segment start falls in
// one orthant; per-orthant bounding structures give lower and upper bounds
// on the segment's deviation. Exact mode (BQS) resolves an inconclusive
// bound by scanning the segment's buffered points; fast mode (FBQS) splits,
// keeping constant space.
//
// A bound policy supplies everything that depends on the dimension:
//   Vec, Point, Key, Compressed   vector, fix, key-point and output types;
//   Bound                         per-orthant state, constructed from its
//                                 orthant index, with Reset/Add/empty;
//   kOrthants                     2^dimension;
//   OrthantOf(Vec)                the orthant a relative vector falls in;
//   Bounds(bound, end, metric)    DeviationBounds of one orthant's points
//                                 to the path from the origin to `end`;
//   kExactName, kFastName         name() of each engine.
// Point deviations use the PointDeviation overload for Vec.
#ifndef BQS_CORE_ORTHANT_COMPRESSOR_H_
#define BQS_CORE_ORTHANT_COMPRESSOR_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/bounds.h"
#include "core/decision_stats.h"
#include "core/options.h"

namespace bqs {

/// Online, error-bounded compressor over `Policy`'s orthant systems.
template <typename Policy>
class OrthantCompressor {
 public:
  using Vec = typename Policy::Vec;
  using Point = typename Policy::Point;
  using Key = typename Policy::Key;
  using Bound = typename Policy::Bound;

  /// `exact_mode` true = BQS (buffered exact fallback); false = FBQS
  /// (constant space).
  explicit OrthantCompressor(const BqsOptions& options = {},
                             bool exact_mode = false)
      : options_(options), exact_mode_(exact_mode) {
    for (std::size_t i = 0; i < orthants_.size(); ++i) {
      orthants_[i] = Bound(static_cast<int>(i));
    }
    Reset();
  }

  void Push(const Point& pt, std::vector<Key>* out) {
    const uint64_t index = next_index_++;
    ++stats_.points;
    if (!have_first_) {
      have_first_ = true;
      EmitKey(pt, index, out);
      StartSegment(pt, index);
      return;
    }
    ProcessPoint(pt, index, out, 0);
  }

  void Finish(std::vector<Key>* out) {
    if (have_first_ && prev_index_ != last_emitted_index_) {
      EmitKey(prev_, prev_index_, out);
    }
  }

  void Reset() {
    stats_ = DecisionStats{};
    have_first_ = false;
    next_index_ = 0;
    last_emitted_index_ = UINT64_MAX;
    StartSegment(Point{}, 0);
  }

  std::string_view name() const {
    return exact_mode_ ? Policy::kExactName : Policy::kFastName;
  }
  const DecisionStats& stats() const { return stats_; }
  const BqsOptions& options() const { return options_; }

 private:
  enum class Decision { kInclude, kSplit };

  void ProcessPoint(const Point& pt, uint64_t index, std::vector<Key>* out,
                    int depth) {
    assert(depth <= 1);
    if (Assess(pt) == Decision::kInclude) {
      prev_ = pt;
      prev_index_ = index;
      return;
    }
    EmitKey(prev_, prev_index_, out);
    ++stats_.segments;
    StartSegment(prev_, prev_index_);
    ProcessPoint(pt, index, out, depth + 1);
  }

  Decision Assess(const Point& pt) {
    const Vec rel = pt.pos - segment_start_.pos;
    const double eps = options_.epsilon;

    // Theorem 5.1 holds in any dimension: a near-start point deviates at
    // most |p - s| from any path through s, so it never enters the bounding
    // structures. It must still pass the end-validity assessment below.
    const bool trivial = rel.NormSq() <= eps * eps;

    DeviationBounds bounds;
    for (const Bound& o : orthants_) {
      if (!o.empty()) {
        bounds.MergeMax(Policy::Bounds(o, rel, options_.metric));
      }
    }
    // BQS gives the bounds the exact scan's guard band: a bound within
    // 1e-12 relative of eps defers to the exact verdict, which settles
    // ties. FBQS has no exact state and keeps the plain comparisons.
    const double band = exact_mode_ ? 1e-12 * eps : 0.0;
    if (bounds.upper <= eps - band) {
      Include(pt, rel, trivial, &stats_.upper_bound_includes);
      return Decision::kInclude;
    }
    if (bounds.lower > eps + band) {
      ++stats_.lower_bound_splits;
      return Decision::kSplit;
    }
    if (!exact_mode_) {
      ++stats_.uncertain_splits;
      return Decision::kSplit;
    }

    ++stats_.exact_computations;
    double dev = 0.0;
    for (const Point& p : buffer_) {
      dev = std::max(dev, PointDeviation(p.pos, segment_start_.pos, pt.pos,
                                         options_.metric));
    }
    if (dev <= eps) {
      Include(pt, rel, trivial, &stats_.exact_includes);
      return Decision::kInclude;
    }
    ++stats_.exact_splits;
    return Decision::kSplit;
  }

  /// Counts an include and, unless it is trivial, folds the point into its
  /// orthant (and the exact-mode buffer).
  void Include(const Point& pt, Vec rel, bool trivial, uint64_t* counter) {
    if (trivial) {
      ++stats_.trivial_includes;
      return;
    }
    ++*counter;
    orthants_[static_cast<std::size_t>(Policy::OrthantOf(rel))].Add(rel);
    if (exact_mode_) buffer_.push_back(pt);
  }

  void StartSegment(const Point& pt, uint64_t index) {
    segment_start_ = pt;
    prev_ = pt;
    prev_index_ = index;
    for (Bound& o : orthants_) o.Reset();
    buffer_.clear();
  }

  void EmitKey(const Point& pt, uint64_t index, std::vector<Key>* out) {
    out->push_back(Key{pt, index});
    last_emitted_index_ = index;
  }

  BqsOptions options_;
  bool exact_mode_;
  DecisionStats stats_;

  bool have_first_ = false;
  uint64_t next_index_ = 0;
  Point segment_start_{};
  Point prev_{};
  uint64_t prev_index_ = 0;
  uint64_t last_emitted_index_ = UINT64_MAX;

  std::array<Bound, Policy::kOrthants> orthants_;
  std::vector<Point> buffer_;  ///< Exact mode only.
};

/// Runs an orthant compressor over a whole stream.
template <typename Policy>
typename Policy::Compressed CompressAll(
    OrthantCompressor<Policy>& compressor,
    std::span<const typename Policy::Point> points) {
  typename Policy::Compressed out;
  compressor.Reset();
  for (const auto& p : points) compressor.Push(p, &out.keys);
  compressor.Finish(&out.keys);
  return out;
}

}  // namespace bqs

#endif  // BQS_CORE_ORTHANT_COMPRESSOR_H_
