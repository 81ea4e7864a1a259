#include "storage/grid_index.h"

#include <algorithm>
#include <cmath>

namespace bqs {

GridIndex::GridIndex(double cell_size) : cell_size_(cell_size) {}

int64_t GridIndex::CellKey(Vec2 pos) const {
  const auto cx = static_cast<int64_t>(std::floor(pos.x / cell_size_));
  const auto cy = static_cast<int64_t>(std::floor(pos.y / cell_size_));
  // Interleave the two 32-bit cell coordinates into one key.
  return (cx << 32) ^ (cy & 0xffffffffLL);
}

void GridIndex::Insert(uint64_t id, Vec2 pos) {
  cells_[CellKey(pos)].push_back(Entry{id, pos});
  ++size_;
}

bool GridIndex::Remove(uint64_t id, Vec2 pos) {
  const auto it = cells_.find(CellKey(pos));
  if (it == cells_.end()) return false;
  auto& bucket = it->second;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i].id == id) {
      bucket[i] = bucket.back();
      bucket.pop_back();
      if (bucket.empty()) cells_.erase(it);
      --size_;
      return true;
    }
  }
  return false;
}

std::vector<uint64_t> GridIndex::Query(Vec2 center, double radius) const {
  std::vector<uint64_t> out;
  const double x0 = std::floor((center.x - radius) / cell_size_);
  const double x1 = std::floor((center.x + radius) / cell_size_);
  const double y0 = std::floor((center.y - radius) / cell_size_);
  const double y1 = std::floor((center.y + radius) / cell_size_);
  const double r2 = radius * radius;

  // Sweep the query rectangle only while it is cheaper than walking every
  // occupied cell and its cell coordinates fit the key; otherwise (huge
  // radii, far-out or non-finite coordinates) walk the occupied cells.
  // Both visit cells in the same (cx, cy) order, so the ids and their
  // order do not depend on the path taken.
  constexpr double kMaxCell = 0x1p62;
  const double swept = (x1 - x0 + 1.0) * (y1 - y0 + 1.0);
  if (swept <= static_cast<double>(cells_.size()) &&
      std::max(std::abs(x0), std::abs(x1)) < kMaxCell &&
      std::max(std::abs(y0), std::abs(y1)) < kMaxCell) {
    const auto cx1 = static_cast<int64_t>(x1);
    const auto cy1 = static_cast<int64_t>(y1);
    for (auto cx = static_cast<int64_t>(x0); cx <= cx1; ++cx) {
      for (auto cy = static_cast<int64_t>(y0); cy <= cy1; ++cy) {
        const int64_t key = (cx << 32) ^ (cy & 0xffffffffLL);
        const auto it = cells_.find(key);
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          if (DistanceSq(e.pos, center) <= r2) out.push_back(e.id);
        }
      }
    }
    return out;
  }

  struct Hit {
    double cx, cy;
    uint64_t id;
  };
  std::vector<Hit> hits;
  for (const auto& cell : cells_) {
    for (const Entry& e : cell.second) {
      if (!(DistanceSq(e.pos, center) <= r2)) continue;
      hits.push_back(Hit{std::floor(e.pos.x / cell_size_),
                         std::floor(e.pos.y / cell_size_), e.id});
    }
  }
  // Stable: one cell's entries share a bucket and keep its order.
  std::stable_sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.cx < b.cx || (a.cx == b.cx && a.cy < b.cy);
  });
  out.reserve(hits.size());
  for (const Hit& h : hits) out.push_back(h.id);
  return out;
}

void GridIndex::Clear() {
  cells_.clear();
  size_ = 0;
}

}  // namespace bqs
