#include "mesh/delaunay.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace sckl::mesh {
namespace {

// Vertex indices are packed two to a 64-bit edge key.
constexpr std::uint64_t kMaxVertices = std::uint64_t{1} << 32;

std::uint64_t edge_key(std::size_t a, std::size_t b) {
  return static_cast<std::uint64_t>(a) << 32 | static_cast<std::uint64_t>(b);
}

}  // namespace

DelaunayTriangulator::DelaunayTriangulator(geometry::BoundingBox bounds)
    : bounds_(bounds) {
  require(bounds.width() > 0.0 && bounds.height() > 0.0,
          "DelaunayTriangulator: degenerate bounds");
  // Bounding frame: four corners of a box a few times the domain. Keeping
  // the frame close (rather than a far-away super-triangle) keeps every
  // in-circle determinant well conditioned; all real points are strictly
  // inside the frame, so hull degeneracies never arise.
  const double margin = 2.0 * std::max(bounds.width(), bounds.height());
  const geometry::Point2 lo{bounds.min.x - margin, bounds.min.y - margin};
  const geometry::Point2 hi{bounds.max.x + margin, bounds.max.y + margin};
  vertices_.push_back({lo.x, lo.y});
  vertices_.push_back({hi.x, lo.y});
  vertices_.push_back({hi.x, hi.y});
  vertices_.push_back({lo.x, hi.y});
  triangles_.push_back(Tri{{0, 1, 2}});
  triangles_.push_back(Tri{{0, 2, 3}});
  link(0);
  link(1);
  // Cells of at least 100 duplicate tolerances, so a duplicate is always in
  // the 3 x 3 neighbourhood; coarse enough that cell indices fit 31 bits.
  cell_size_ = std::max(100.0 * duplicate_tolerance,
                        std::max(bounds.width(), bounds.height()) / 0x1p30);
}

geometry::Triangle DelaunayTriangulator::corners(const Tri& t) const {
  return geometry::Triangle{
      {vertices_[t.v[0]], vertices_[t.v[1]], vertices_[t.v[2]]}};
}

std::size_t DelaunayTriangulator::neighbor(const Tri& tri, int e) const {
  const auto it = edge_owner_.find(edge_key(tri.v[(e + 1) % 3], tri.v[e]));
  return it == edge_owner_.end() ? kNone : it->second;
}

void DelaunayTriangulator::link(std::size_t t) {
  const Tri& tri = triangles_[t];
  for (int e = 0; e < 3; ++e)
    edge_owner_[edge_key(tri.v[e], tri.v[(e + 1) % 3])] = t;
}

std::size_t DelaunayTriangulator::locate(geometry::Point2 p) const {
  // Walk from the last fan towards p, leaving each triangle through the
  // first edge that has p strictly on its outer side.
  std::size_t t = triangles_.size() - 1;
  for (std::size_t step = 0; step < triangles_.size() && t != kNone; ++step) {
    const Tri& tri = triangles_[t];
    int exit = -1;
    for (int e = 0; e < 3 && exit < 0; ++e)
      if (geometry::orientation(vertices_[tri.v[e]],
                                vertices_[tri.v[(e + 1) % 3]], p) < 0.0)
        exit = e;
    if (exit < 0) return t;
    t = neighbor(tri, exit);
  }
  // A walk can cycle where the triangulation is not Delaunay (clusters of
  // near-duplicate points); fall back to the lowest-index containing one.
  for (t = 0; t < triangles_.size(); ++t)
    if (geometry::point_in_triangle(corners(triangles_[t]), p, 1e-14))
      return t;
  return kNone;
}

std::uint64_t DelaunayTriangulator::cell_key(geometry::Point2 p, int dx,
                                             int dy) const {
  // Cell indices lie in [-1, 2^30 + 1]; -1 packs to a key no cell has.
  const auto ix =
      static_cast<std::int64_t>((p.x - bounds_.min.x) / cell_size_) + dx;
  const auto iy =
      static_cast<std::int64_t>((p.y - bounds_.min.y) / cell_size_) + dy;
  return static_cast<std::uint64_t>(ix) << 32 |
         static_cast<std::uint32_t>(iy);
}

bool DelaunayTriangulator::has_duplicate(geometry::Point2 p) const {
  for (int dx = -1; dx <= 1; ++dx)
    for (int dy = -1; dy <= 1; ++dy) {
      const auto [first, last] = cells_.equal_range(cell_key(p, dx, dy));
      for (auto it = first; it != last; ++it)
        if (geometry::distance(vertices_[it->second], p) <
            duplicate_tolerance)
          return true;
    }
  return false;
}

bool DelaunayTriangulator::insert(geometry::Point2 p) {
  require(vertices_.size() < kMaxVertices,
          "DelaunayTriangulator: vertex indices exceed 32 bits");
  require(!std::isnan(p.x) && !std::isnan(p.y),
          "DelaunayTriangulator: NaN coordinate");
  p.x = std::clamp(p.x, bounds_.min.x, bounds_.max.x);
  p.y = std::clamp(p.y, bounds_.min.y, bounds_.max.y);
  if (has_duplicate(p)) return false;

  // --- Robust cavity construction -----------------------------------------
  // The textbook "all triangles whose circumcircle contains p" cavity breaks
  // under floating-point noise (skinny triangles, near-cocircular points):
  // it can come out disconnected or non-star-shaped, and re-fanning it then
  // corrupts the mesh. We instead grow the cavity as an *edge-connected*
  // region from the triangle containing p, then *repair* it: any cavity
  // boundary edge that p does not see strictly from the cavity side evicts
  // its triangle. The resulting fan is a triangulation of a star polygon
  // around p, so the tiling invariant holds unconditionally.
  const std::size_t containing = locate(p);
  if (containing == kNone) return false;  // outside the frame: reject

  epoch_ += 2;
  const std::uint64_t in_cavity = epoch_;
  const std::uint64_t kept = epoch_ + 1;
  if (stamp_.size() < triangles_.size()) stamp_.resize(triangles_.size(), 0);

  // BFS over edge neighbors passing the in-circle test.
  std::vector<std::size_t> queue{containing};
  stamp_[containing] = in_cavity;
  std::vector<std::size_t> bad;
  while (!queue.empty()) {
    const std::size_t t = queue.back();
    queue.pop_back();
    bad.push_back(t);
    const Tri& tri = triangles_[t];
    for (int e = 0; e < 3; ++e) {
      const std::size_t other = neighbor(tri, e);
      if (other == kNone || stamp_[other] == in_cavity) continue;
      const geometry::Triangle candidate = corners(triangles_[other]);
      if (geometry::in_circumcircle(candidate.p[0], candidate.p[1],
                                    candidate.p[2], p)) {
        stamp_[other] = in_cavity;
        queue.push_back(other);
      }
    }
  }

  // Repair until every boundary edge sees p strictly on the cavity side.
  // Each cavity triangle's edges are oriented CCW, so the cavity lies to
  // the left of (a, b): require orientation(a, b, p) > 0.
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t idx = 0; idx < bad.size(); ++idx) {
      const std::size_t t = bad[idx];
      const Tri& tri = triangles_[t];
      bool evict = false;
      for (int e = 0; e < 3 && !evict; ++e) {
        const std::size_t other = neighbor(tri, e);
        const bool is_boundary =
            (other == kNone || stamp_[other] != in_cavity);
        if (is_boundary &&
            geometry::orientation(vertices_[tri.v[e]],
                                  vertices_[tri.v[(e + 1) % 3]], p) <= 0.0)
          evict = true;
      }
      if (evict && t != containing) {
        stamp_[t] = 0;
        bad[idx] = bad.back();
        bad.pop_back();
        --idx;
        changed = true;
      } else if (evict) {
        return false;  // even the containing triangle fails: degenerate p
      }
    }
  }
  // Eviction can disconnect the cavity; keep the component containing p,
  // in ascending triangle order.
  {
    std::vector<std::size_t> stack{containing};
    stamp_[containing] = kept;
    bad.clear();
    while (!stack.empty()) {
      const std::size_t t = stack.back();
      stack.pop_back();
      bad.push_back(t);
      const Tri& tri = triangles_[t];
      for (int e = 0; e < 3; ++e) {
        const std::size_t other = neighbor(tri, e);
        if (other != kNone && stamp_[other] == in_cavity) {
          stamp_[other] = kept;
          stack.push_back(other);
        }
      }
    }
    std::sort(bad.begin(), bad.end());
  }

  // Collect boundary edges (oriented: cavity to the left) and build the fan.
  std::vector<Tri> fan;
  const std::size_t pi = vertices_.size();
  for (std::size_t t : bad) {
    const Tri& tri = triangles_[t];
    for (int e = 0; e < 3; ++e) {
      const std::size_t a = tri.v[e];
      const std::size_t b = tri.v[(e + 1) % 3];
      const std::size_t other = neighbor(tri, e);
      if (other != kNone && stamp_[other] == kept) continue;  // interior
      if (geometry::orientation(vertices_[a], vertices_[b], p) <= 0.0)
        return false;  // repair fixpoint failed to certify: reject
      fan.push_back(Tri{{a, b, pi}});
    }
  }
  if (fan.empty()) return false;

  // Commit: remove cavity triangles (descending swap-remove keeps indices
  // valid; the triangle moved into a freed slot re-points its edges) and
  // append the fan.
  std::sort(bad.rbegin(), bad.rend());
  for (std::size_t t : bad) {
    const Tri& removed = triangles_[t];
    for (int e = 0; e < 3; ++e) {
      const auto it =
          edge_owner_.find(edge_key(removed.v[e], removed.v[(e + 1) % 3]));
      if (it != edge_owner_.end() && it->second == t) edge_owner_.erase(it);
    }
    triangles_[t] = triangles_.back();
    triangles_.pop_back();
    if (t < triangles_.size()) link(t);
  }
  for (const Tri& tri : fan) {
    triangles_.push_back(tri);
    link(triangles_.size() - 1);
  }
  vertices_.push_back(p);
  cells_.emplace(cell_key(p, 0, 0), pi);
  return true;
}

TriMesh DelaunayTriangulator::finalize() const {
  require(num_points() >= 3, "DelaunayTriangulator: need at least 3 points");
  std::vector<geometry::Point2> vertices(
      vertices_.begin() + kFrameVertices, vertices_.end());
  std::vector<TriMesh::TriangleIndices> triangles;
  for (const Tri& t : triangles_) {
    if (t.v[0] < kFrameVertices || t.v[1] < kFrameVertices ||
        t.v[2] < kFrameVertices)
      continue;
    triangles.push_back({t.v[0] - kFrameVertices, t.v[1] - kFrameVertices,
                         t.v[2] - kFrameVertices});
  }
  require(!triangles.empty(),
          "DelaunayTriangulator: no interior triangles (collinear input?)");
  return TriMesh(std::move(vertices), std::move(triangles));
}

TriMesh delaunay_mesh(geometry::BoundingBox bounds,
                      const std::vector<geometry::Point2>& points) {
  DelaunayTriangulator builder(bounds);
  for (const auto& p : points) builder.insert(p);
  return builder.finalize();
}

}  // namespace sckl::mesh
