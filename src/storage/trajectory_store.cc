#include "storage/trajectory_store.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "baselines/douglas_peucker.h"

namespace bqs {

double SegmentHausdorff(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  // For straight segments the directed Hausdorff distance is attained at an
  // endpoint, so the symmetric distance needs only four point-to-segment
  // distances.
  const double forward = std::max(PointToSegmentDistance(a, c, d),
                                  PointToSegmentDistance(b, c, d));
  const double backward = std::max(PointToSegmentDistance(c, a, b),
                                   PointToSegmentDistance(d, a, b));
  return std::max(forward, backward);
}

TrajectoryStore::TrajectoryStore(const TrajectoryStoreOptions& options)
    : options_(options), index_(options.cell_size) {}

void TrajectoryStore::IndexSegment(const StoredSegment& seg) {
  index_.Insert(seg.id, (seg.a + seg.b) * 0.5);
}

std::vector<uint64_t> TrajectoryStore::FindSimilar(Vec2 a, Vec2 b,
                                                   double tolerance) const {
  // Candidate segments have midpoints within (half length + tolerance) of
  // the query midpoint; the Hausdorff check is the exact filter.
  const Vec2 mid = (a + b) * 0.5;
  const double radius = Distance(a, b) * 0.5 + tolerance + options_.cell_size;
  std::vector<uint64_t> out;
  for (uint64_t id : index_.Query(mid, radius)) {
    const StoredSegment& seg = segments_[id];
    if (!seg.alive) continue;
    if (SegmentHausdorff(a, b, seg.a, seg.b) <= tolerance) {
      out.push_back(id);
    }
  }
  return out;
}

Result<TrajectoryStore::AppendResult> TrajectoryStore::Append(
    const CompressedTrajectory& compressed) {
  AppendResult result;
  const auto& keys = compressed.keys;
  if (keys.empty()) {
    return Status::InvalidArgument("empty trajectory: nothing to store");
  }
  if (keys.size() < 2) {
    return Status::InvalidArgument(
        "trajectory has a single key point: no segment to store");
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const TrackPoint& pt = keys[i].point;
    if (!(std::isfinite(pt.pos.x) && std::isfinite(pt.pos.y) &&
          std::isfinite(pt.t))) {
      return Status::InvalidArgument(
          "non-finite key point at position " + std::to_string(i));
    }
  }

  std::vector<uint64_t> current_polyline;
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    ++result.segments_in;
    const Vec2 a = keys[i].point.pos;
    const Vec2 b = keys[i + 1].point.pos;

    const auto similar = FindSimilar(a, b, options_.merge_tolerance);
    if (!similar.empty()) {
      // Duplicate information: merge into the first (oldest) match.
      StoredSegment& seg = segments_[similar.front()];
      ++seg.visits;
      seg.t_end = std::max(seg.t_end, keys[i + 1].point.t);
      ++visit_total_;
      ++result.segments_merged;
      // A merge interrupts the run of novel segments.
      if (!current_polyline.empty()) {
        polylines_.push_back(std::move(current_polyline));
        current_polyline.clear();
      }
      continue;
    }

    StoredSegment seg;
    seg.id = NextId();
    seg.a = a;
    seg.b = b;
    seg.t_start = keys[i].point.t;
    seg.t_end = keys[i + 1].point.t;
    segments_.push_back(seg);
    IndexSegment(seg);
    ++live_segments_;
    ++visit_total_;
    ++result.segments_stored;
    current_polyline.push_back(seg.id);
  }
  if (!current_polyline.empty()) {
    polylines_.push_back(std::move(current_polyline));
  }
  return result;
}

std::size_t TrajectoryStore::Age(double new_epsilon) {
  std::size_t dropped_points = 0;
  DouglasPeucker dp(DpOptions{new_epsilon, DistanceMetric::kPointToLine});

  for (auto& polyline : polylines_) {
    if (polyline.size() < 2) continue;
    // Reconstruct the stored key-point chain of this polyline. Segments in
    // a polyline are contiguous by construction (b of one == a of next).
    Trajectory chain;
    chain.reserve(polyline.size() + 1);
    bool contiguous = true;
    for (std::size_t i = 0; i < polyline.size(); ++i) {
      const StoredSegment& seg = segments_[polyline[i]];
      if (!seg.alive) {
        contiguous = false;
        break;
      }
      if (i == 0) {
        chain.push_back(TrackPoint{seg.a, seg.t_start, {0, 0}});
      }
      chain.push_back(TrackPoint{seg.b, seg.t_end, {0, 0}});
    }
    if (!contiguous || chain.size() < 3) continue;

    const CompressedTrajectory aged = dp.Compress(chain);
    if (aged.keys.size() >= chain.size()) continue;  // Nothing gained.
    dropped_points += chain.size() - aged.keys.size();

    // Retire the old segments and store the aged ones.
    uint32_t carried_visits = 0;
    for (uint64_t id : polyline) {
      StoredSegment& seg = segments_[id];
      seg.alive = false;
      carried_visits = std::max(carried_visits, seg.visits);
      index_.Remove(id, (seg.a + seg.b) * 0.5);
      --live_segments_;
    }
    std::vector<uint64_t> new_ids;
    for (std::size_t i = 0; i + 1 < aged.keys.size(); ++i) {
      StoredSegment seg;
      seg.id = NextId();
      seg.a = aged.keys[i].point.pos;
      seg.b = aged.keys[i + 1].point.pos;
      seg.t_start = aged.keys[i].point.t;
      seg.t_end = aged.keys[i + 1].point.t;
      seg.visits = carried_visits;
      segments_.push_back(seg);
      IndexSegment(segments_.back());
      ++live_segments_;
      new_ids.push_back(seg.id);
    }
    polyline = std::move(new_ids);
  }
  return dropped_points;
}

double TrajectoryStore::StorageBytes() const {
  // Each live segment stores one key point plus one shared endpoint per
  // polyline; counting one point per segment + one per polyline is exact
  // for contiguous chains and a safe overestimate otherwise.
  return options_.bytes_per_point *
         (static_cast<double>(live_segments_) +
          static_cast<double>(polylines_.size()));
}

}  // namespace bqs
