// Uniform-grid spatial index over a fixed point set.
//
// Cell size equals the largest query radius (for the topology: the
// interference range), so every range query only has to inspect the 3x3
// cell neighborhood of the query point. Range queries are *exact* — every
// candidate from the neighborhood is distance-checked — so callers get the
// same sets an all-pairs scan would produce, in ascending-index order, at
// O(points-in-neighborhood) instead of O(N) per query.
//
// The index is immutable after construction (like Topology) and holds the
// point ids bucketed per cell in one contiguous array (CSR layout), so a
// 10k+-node city topology costs two O(N) passes and ~8 bytes per point.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/geom.hpp"

namespace e2efa {

class SpatialGrid {
 public:
  /// Indexes `points` with square cells of side `cell_size` (> 0). Queries
  /// with a radius larger than `cell_size` fall back to scanning more cell
  /// rings and stay exact, just slower — size the cell to the largest
  /// frequent radius.
  SpatialGrid(const std::vector<Point>& points, double cell_size);

  int point_count() const { return static_cast<int>(points_.size()); }
  double cell_size() const { return cell_; }

  /// Calls fn(j) for every point j != i within `range` meters of point i,
  /// in ascending j order (matching what the all-pairs double loop visits).
  template <typename Fn>
  void for_each_in_range_of(int i, double range, Fn&& fn) const {
    gather(points_[static_cast<std::size_t>(i)], range, i);
    for (int j : scratch_) fn(j);
  }

  /// Ascending ids of all points within `range` of point i, excluding i.
  std::vector<int> in_range_of(int i, double range) const;

 private:
  /// Fills scratch_ with the ascending ids of points within `range` of p,
  /// excluding the point `exclude`.
  void gather(const Point& p, double range, int exclude) const;

  int cell_of(const Point& p) const;

  std::vector<Point> points_;
  double cell_ = 0.0;
  double min_x_ = 0.0, min_y_ = 0.0;
  int cols_ = 0, rows_ = 0;
  // CSR buckets: ids of the points in cell c are
  // cell_points_[cell_start_[c] .. cell_start_[c + 1]), ascending.
  std::vector<std::int32_t> cell_start_;
  std::vector<std::int32_t> cell_points_;
  // Query scratch, reused across calls to avoid per-query allocation. The
  // index is logically immutable; concurrent queries need one grid per
  // thread (same rule as the rest of the simulator's state).
  mutable std::vector<int> scratch_;
};

}  // namespace e2efa
