// Incremental Delaunay triangulation (Bowyer-Watson).
//
// The paper meshes the die with Shewchuk's Triangle [24]; this is our
// self-contained substitute. Points are inserted one at a time: the "cavity"
// of triangles whose circumcircle contains the new point is removed and
// re-fanned from the point. The triangulator object stays alive across
// insertions so the refinement loop (refine.h) can add Steiner points
// incrementally.
//
// One insertion costs its cavity plus a walk, not the whole mesh: a
// persistent map from directed edge to owning triangle gives neighbors, the
// containing triangle is found by walking from the last fan, and duplicates
// are found in a hash grid of the inserted points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mesh/tri_mesh.h"

namespace sckl::mesh {

/// Incremental Bowyer-Watson triangulator over a fixed bounding box.
class DelaunayTriangulator {
 public:
  /// Prepares a 4-corner bounding frame enclosing `bounds` with moderate
  /// margin (keeps in-circle determinants well conditioned).
  explicit DelaunayTriangulator(geometry::BoundingBox bounds);

  /// Inserts a point. Points closer than `duplicate_tolerance` to an
  /// existing vertex are ignored (returns false). Points outside the
  /// original bounds are clamped onto it.
  bool insert(geometry::Point2 p);

  /// Number of real (non-frame) vertices inserted so far.
  std::size_t num_points() const { return vertices_.size() - kFrameVertices; }

  /// Extracts the triangulation of the inserted points, dropping every
  /// triangle incident to the bounding frame. Requires >= 3 points.
  TriMesh finalize() const;

  /// Minimum distance below which two points are considered duplicates.
  static constexpr double duplicate_tolerance = 1e-9;

 private:
  static constexpr std::size_t kFrameVertices = 4;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Tri {
    std::size_t v[3];
  };

  geometry::Triangle corners(const Tri& t) const;
  /// The triangle across edge (v[e], v[e+1]) of `tri`, or kNone on the
  /// frame's outer edges.
  std::size_t neighbor(const Tri& tri, int e) const;
  /// Points the three directed edges of triangle t at t.
  void link(std::size_t t);
  /// A triangle containing p, or kNone.
  std::size_t locate(geometry::Point2 p) const;
  /// Key of the duplicate-grid cell (dx, dy) cells away from p's.
  std::uint64_t cell_key(geometry::Point2 p, int dx, int dy) const;
  bool has_duplicate(geometry::Point2 p) const;

  geometry::BoundingBox bounds_;
  std::vector<geometry::Point2> vertices_;  // [0..3] are frame vertices
  std::vector<Tri> triangles_;
  // Directed edge (a -> b), packed as a << 32 | b, to the triangle that has
  // it; the neighbor across (a, b) is the owner of (b, a).
  std::unordered_map<std::uint64_t, std::size_t> edge_owner_;
  // Real vertices hashed by grid cell, for the duplicate test.
  double cell_size_ = 0.0;
  std::unordered_multimap<std::uint64_t, std::size_t> cells_;
  // Cavity marks, valid for one insertion: stamp_[t] == epoch_ while t is in
  // the cavity and epoch_ + 1 once it is kept. Each insertion advances
  // epoch_ by 2, which clears every mark at once.
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

/// One-shot Delaunay triangulation of a point set over `bounds`.
TriMesh delaunay_mesh(geometry::BoundingBox bounds,
                      const std::vector<geometry::Point2>& points);

}  // namespace sckl::mesh
