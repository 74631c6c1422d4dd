// Quality mesh generation by Delaunay refinement.
//
// Substitute for the paper's use of Shewchuk's Triangle with "minimum angle
// 28 degrees and maximum triangle area 0.1% of the chip area" (Sec. 5.2).
// Strategy: seed the rectangle boundary and a jittered interior grid at a
// spacing matched to the area budget, Delaunay-triangulate, then repeatedly
// insert Steiner points (circumcenters, falling back to centroids near the
// boundary) into the worst offending triangle until the area bound holds
// and angles are acceptable. On the paper's setup (unit die, max area
// 0.004) it gives n = 2,258 at seed 1 (seeds 1-12: 1,974-2,643), above the
// paper's n = 1546 from Triangle.
#pragma once

#include <cstdint>

#include "mesh/tri_mesh.h"

namespace sckl::mesh {

/// Parameters for refined_delaunay_mesh().
///
/// The angle target defaults to 15 degrees, not the paper's 28: plain
/// circumcenter (Ruppert) refinement is only guaranteed below ~20.7 degrees
/// and demonstrably diverges above it; Shewchuk's Triangle reaches 28 with
/// additional machinery. The area constraint — which is what the Galerkin
/// convergence (Theorem 2) actually depends on — is enforced strictly, and
/// the structured cross mesh (structured_mesher.h) offers an exact 45-degree
/// alternative where angle quality matters.
struct RefinementOptions {
  double max_area;                  // hard constraint on element area
  double min_angle_degrees = 15.0;  // refinement target (see note above)
  std::uint64_t seed = 1;           // interior-grid jitter seed
  int max_insertions = 200000;      // refinement budget
};

/// Generates a quality triangulation of `bounds`. The area constraint is
/// enforced strictly; the angle target is best-effort (violations can remain
/// near the boundary, as with any Steiner-only scheme). Throws only when the
/// insertion budget is exhausted before the area constraint is met.
TriMesh refined_delaunay_mesh(geometry::BoundingBox bounds,
                              const RefinementOptions& options);

/// The paper's exact mesh configuration: max area = `area_fraction` of the
/// die area (default 0.1%) on the normalized die.
TriMesh paper_mesh(geometry::BoundingBox bounds = geometry::BoundingBox::unit_die(),
                   double area_fraction = 0.001, std::uint64_t seed = 1);

}  // namespace sckl::mesh
