// Uniform-grid spatial index for point -> triangle lookup.
//
// Algorithm 2 of the paper maps every gate location g_i to the index of the
// mesh triangle containing it ("IndexOfContainingTriangle ... can be made
// efficient using some space indexing (grid, tree, etc.)"). This is that
// grid: each bucket stores the triangles whose bounding box overlaps it, so
// a query tests only a handful of candidates instead of all n.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "geometry/triangle.h"

namespace sckl::geometry {

/// Spatial hash over a fixed bounding box; built once, queried many times.
class SpatialGrid {
 public:
  /// Builds an index over `triangles` covering `bounds`. `cells_per_side` of
  /// 0 picks roughly sqrt(n) cells per side, which keeps the expected bucket
  /// occupancy constant.
  SpatialGrid(const std::vector<Triangle>& triangles, BoundingBox bounds,
              std::size_t cells_per_side = 0);

  /// Index of a triangle containing q, or nullopt when q is outside every
  /// triangle (e.g., outside the die). Boundary points match an arbitrary
  /// incident triangle.
  std::optional<std::size_t> find_containing(Point2 q) const;

  /// Like find_containing but falls back to the nearest triangle centroid
  /// when q is not strictly inside any triangle. This is what gate-location
  /// lookup wants: placements can land exactly on mesh edges or be nudged
  /// marginally outside the die by legalization.
  std::size_t find_containing_or_nearest(Point2 q) const;

  std::size_t cells_per_side() const { return cells_; }

  /// Heap bytes of the index: its triangle copies, the bucket headers and
  /// every bucket's capacity.
  std::size_t resident_bytes() const;

 private:
  std::size_t cell_of(double v, double lo, double extent) const;

  std::vector<Triangle> triangles_;
  BoundingBox bounds_;
  std::size_t cells_ = 1;
  std::vector<std::vector<std::size_t>> buckets_;
};

}  // namespace sckl::geometry
