// Scan-based Bowyer-Watson triangulator — a test-only oracle.
//
// The straightforward form of DelaunayTriangulator: every insertion rebuilds
// the edge adjacency over all triangles, scans every vertex for duplicates
// and scans every triangle for the containing one (O(n) per insertion). It
// applies the same cavity rules in the same order, so mesh_test can require
// the production triangulator's insert() results and finalized meshes to
// match it bit for bit. Intended for a few thousand points.
#pragma once

#include <cstddef>
#include <vector>

#include "mesh/tri_mesh.h"

namespace sckl::mesh {

class ReferenceDelaunay {
 public:
  explicit ReferenceDelaunay(geometry::BoundingBox bounds);

  /// Same contract as DelaunayTriangulator::insert.
  bool insert(geometry::Point2 p);

  /// Same contract as DelaunayTriangulator::finalize.
  TriMesh finalize() const;

 private:
  static constexpr std::size_t kFrameVertices = 4;

  struct Tri {
    std::size_t v[3];
  };

  geometry::Triangle corners(const Tri& t) const;

  geometry::BoundingBox bounds_;
  std::vector<geometry::Point2> vertices_;  // [0..3] are frame vertices
  std::vector<Tri> triangles_;
};

}  // namespace sckl::mesh
