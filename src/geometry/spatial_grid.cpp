#include "geometry/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace sckl::geometry {

SpatialGrid::SpatialGrid(const std::vector<Triangle>& triangles,
                         BoundingBox bounds, std::size_t cells_per_side)
    : triangles_(triangles), bounds_(bounds) {
  sckl::require(!triangles_.empty(), "SpatialGrid: no triangles");
  sckl::require(bounds_.width() > 0.0 && bounds_.height() > 0.0,
                "SpatialGrid: degenerate bounds");
  cells_ = cells_per_side != 0
               ? cells_per_side
               : std::max<std::size_t>(
                     1, static_cast<std::size_t>(
                            std::sqrt(static_cast<double>(triangles_.size()))));
  buckets_.assign(cells_ * cells_, {});

  for (std::size_t t = 0; t < triangles_.size(); ++t) {
    const auto& tri = triangles_[t];
    double min_x = tri.p[0].x;
    double max_x = tri.p[0].x;
    double min_y = tri.p[0].y;
    double max_y = tri.p[0].y;
    for (int i = 1; i < 3; ++i) {
      min_x = std::min(min_x, tri.p[i].x);
      max_x = std::max(max_x, tri.p[i].x);
      min_y = std::min(min_y, tri.p[i].y);
      max_y = std::max(max_y, tri.p[i].y);
    }
    const std::size_t cx0 = cell_of(min_x, bounds_.min.x, bounds_.width());
    const std::size_t cx1 = cell_of(max_x, bounds_.min.x, bounds_.width());
    const std::size_t cy0 = cell_of(min_y, bounds_.min.y, bounds_.height());
    const std::size_t cy1 = cell_of(max_y, bounds_.min.y, bounds_.height());
    for (std::size_t cy = cy0; cy <= cy1; ++cy)
      for (std::size_t cx = cx0; cx <= cx1; ++cx)
        buckets_[cy * cells_ + cx].push_back(t);
  }
}

std::size_t SpatialGrid::resident_bytes() const {
  std::size_t bytes = triangles_.capacity() * sizeof(Triangle) +
                      buckets_.capacity() * sizeof(buckets_[0]);
  for (const auto& bucket : buckets_)
    bytes += bucket.capacity() * sizeof(std::size_t);
  return bytes;
}

std::size_t SpatialGrid::cell_of(double v, double lo, double extent) const {
  const double scaled = (v - lo) / extent * static_cast<double>(cells_);
  const auto cell = static_cast<long>(std::floor(scaled));
  return static_cast<std::size_t>(
      std::clamp<long>(cell, 0, static_cast<long>(cells_) - 1));
}

std::optional<std::size_t> SpatialGrid::find_containing(Point2 q) const {
  const std::size_t cx = cell_of(q.x, bounds_.min.x, bounds_.width());
  const std::size_t cy = cell_of(q.y, bounds_.min.y, bounds_.height());
  for (std::size_t t : buckets_[cy * cells_ + cx])
    if (point_in_triangle(triangles_[t], q)) return t;
  return std::nullopt;
}

std::size_t SpatialGrid::find_containing_or_nearest(Point2 q) const {
  if (auto hit = find_containing(q)) return *hit;
  // Rare path: scan all centroids. Gate placements are legal die locations,
  // so misses only happen on exact boundary/degenerate cases.
  std::size_t best = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < triangles_.size(); ++t) {
    const double d = distance_squared(triangles_[t].centroid(), q);
    if (d < best_distance) {
      best_distance = d;
      best = t;
    }
  }
  return best;
}

}  // namespace sckl::geometry
