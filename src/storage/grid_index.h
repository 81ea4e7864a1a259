// Uniform-grid spatial index over 2-D points: the lookup structure behind
// the trajectory store's similar-segment search (merging, Section V-F).
// Cells are hashed, so memory scales with occupied cells only.
#ifndef BQS_STORAGE_GRID_INDEX_H_
#define BQS_STORAGE_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/vec2.h"

namespace bqs {

/// Maps ids to positions and answers radius queries in
/// O(min(cells in the query's bounding square, entries)).
class GridIndex {
 public:
  /// `cell_size` should be on the order of typical query radii.
  explicit GridIndex(double cell_size);

  void Insert(uint64_t id, Vec2 pos);

  /// Removes one (id, pos) entry; false when absent.
  bool Remove(uint64_t id, Vec2 pos);

  /// Ids with position within `radius` of `center` (exact filter after the
  /// cell sweep), in (cell x, cell y) order. Duplicate-free if ids were
  /// inserted once. When the query's bounding square holds more cells than
  /// are occupied, or its cell coordinates overflow, every occupied cell is
  /// walked instead; the result is the same.
  std::vector<uint64_t> Query(Vec2 center, double radius) const;

  std::size_t size() const { return size_; }
  void Clear();

 private:
  struct Entry {
    uint64_t id;
    Vec2 pos;
  };

  int64_t CellKey(Vec2 pos) const;

  double cell_size_;
  std::unordered_map<int64_t, std::vector<Entry>> cells_;
  std::size_t size_ = 0;
};

}  // namespace bqs

#endif  // BQS_STORAGE_GRID_INDEX_H_
