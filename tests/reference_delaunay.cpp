#include "reference_delaunay.h"

#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "common/error.h"
#include "mesh/delaunay.h"

namespace sckl::mesh {

ReferenceDelaunay::ReferenceDelaunay(geometry::BoundingBox bounds)
    : bounds_(bounds) {
  require(bounds.width() > 0.0 && bounds.height() > 0.0,
          "ReferenceDelaunay: degenerate bounds");
  const double margin = 2.0 * std::max(bounds.width(), bounds.height());
  const geometry::Point2 lo{bounds.min.x - margin, bounds.min.y - margin};
  const geometry::Point2 hi{bounds.max.x + margin, bounds.max.y + margin};
  vertices_.push_back({lo.x, lo.y});
  vertices_.push_back({hi.x, lo.y});
  vertices_.push_back({hi.x, hi.y});
  vertices_.push_back({lo.x, hi.y});
  triangles_.push_back(Tri{{0, 1, 2}});
  triangles_.push_back(Tri{{0, 2, 3}});
}

geometry::Triangle ReferenceDelaunay::corners(const Tri& t) const {
  return geometry::Triangle{
      {vertices_[t.v[0]], vertices_[t.v[1]], vertices_[t.v[2]]}};
}

bool ReferenceDelaunay::insert(geometry::Point2 p) {
  p.x = std::clamp(p.x, bounds_.min.x, bounds_.max.x);
  p.y = std::clamp(p.y, bounds_.min.y, bounds_.max.y);
  for (std::size_t i = kFrameVertices; i < vertices_.size(); ++i)
    if (geometry::distance(vertices_[i], p) <
        DelaunayTriangulator::duplicate_tolerance)
      return false;

  // Edge adjacency of the current triangulation, and the lowest-index
  // triangle containing p.
  using Edge = std::pair<std::size_t, std::size_t>;
  std::map<Edge, std::array<std::size_t, 2>> neighbors;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t containing = kNone;
  for (std::size_t t = 0; t < triangles_.size(); ++t) {
    const Tri& tri = triangles_[t];
    for (int e = 0; e < 3; ++e) {
      const std::size_t a = tri.v[e];
      const std::size_t b = tri.v[(e + 1) % 3];
      const Edge key{std::min(a, b), std::max(a, b)};
      auto [it, inserted] = neighbors.try_emplace(key,
                                                  std::array{t, kNone});
      if (!inserted) it->second[1] = t;
    }
    if (containing == kNone &&
        geometry::point_in_triangle(corners(tri), p, 1e-14))
      containing = t;
  }
  if (containing == kNone) return false;
  const auto across = [&](std::size_t t, std::size_t a, std::size_t b) {
    const auto& pair_of = neighbors.at({std::min(a, b), std::max(a, b)});
    return pair_of[0] == t ? pair_of[1] : pair_of[0];
  };

  // BFS over edge neighbors passing the in-circle test.
  std::vector<bool> in_cavity(triangles_.size(), false);
  std::vector<std::size_t> queue{containing};
  in_cavity[containing] = true;
  std::vector<std::size_t> bad;
  while (!queue.empty()) {
    const std::size_t t = queue.back();
    queue.pop_back();
    bad.push_back(t);
    const Tri& tri = triangles_[t];
    for (int e = 0; e < 3; ++e) {
      const std::size_t other = across(t, tri.v[e], tri.v[(e + 1) % 3]);
      if (other == kNone || in_cavity[other]) continue;
      const geometry::Triangle candidate = corners(triangles_[other]);
      if (geometry::in_circumcircle(candidate.p[0], candidate.p[1],
                                    candidate.p[2], p)) {
        in_cavity[other] = true;
        queue.push_back(other);
      }
    }
  }

  // Repair until every boundary edge sees p strictly on the cavity side.
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t idx = 0; idx < bad.size(); ++idx) {
      const std::size_t t = bad[idx];
      const Tri& tri = triangles_[t];
      bool evict = false;
      for (int e = 0; e < 3 && !evict; ++e) {
        const std::size_t a = tri.v[e];
        const std::size_t b = tri.v[(e + 1) % 3];
        const std::size_t other = across(t, a, b);
        const bool is_boundary = (other == kNone || !in_cavity[other]);
        if (is_boundary &&
            geometry::orientation(vertices_[a], vertices_[b], p) <= 0.0)
          evict = true;
      }
      if (evict && t != containing) {
        in_cavity[t] = false;
        bad[idx] = bad.back();
        bad.pop_back();
        --idx;
        changed = true;
      } else if (evict) {
        return false;
      }
    }
  }
  // Keep the component containing p.
  {
    std::vector<bool> kept(triangles_.size(), false);
    std::vector<std::size_t> stack{containing};
    kept[containing] = true;
    while (!stack.empty()) {
      const std::size_t t = stack.back();
      stack.pop_back();
      const Tri& tri = triangles_[t];
      for (int e = 0; e < 3; ++e) {
        const std::size_t other = across(t, tri.v[e], tri.v[(e + 1) % 3]);
        if (other != kNone && in_cavity[other] && !kept[other]) {
          kept[other] = true;
          stack.push_back(other);
        }
      }
    }
    bad.clear();
    for (std::size_t t = 0; t < triangles_.size(); ++t) {
      in_cavity[t] = kept[t];
      if (kept[t]) bad.push_back(t);
    }
  }

  // Boundary edges (cavity to the left) form the fan.
  std::vector<Tri> fan;
  const std::size_t pi = vertices_.size();
  for (std::size_t t : bad) {
    const Tri& tri = triangles_[t];
    for (int e = 0; e < 3; ++e) {
      const std::size_t a = tri.v[e];
      const std::size_t b = tri.v[(e + 1) % 3];
      const std::size_t other = across(t, a, b);
      if (other != kNone && in_cavity[other]) continue;
      if (geometry::orientation(vertices_[a], vertices_[b], p) <= 0.0)
        return false;
      fan.push_back(Tri{{a, b, pi}});
    }
  }
  if (fan.empty()) return false;

  // Commit: descending swap-remove, then append the fan.
  std::sort(bad.rbegin(), bad.rend());
  for (std::size_t t : bad) {
    triangles_[t] = triangles_.back();
    triangles_.pop_back();
  }
  vertices_.push_back(p);
  triangles_.insert(triangles_.end(), fan.begin(), fan.end());
  return true;
}

TriMesh ReferenceDelaunay::finalize() const {
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
  return TriMesh(std::move(vertices), std::move(triangles));
}

}  // namespace sckl::mesh
