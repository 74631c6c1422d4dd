#include "mesh/refine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "mesh/delaunay.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sckl::mesh {
namespace {

// Tracks the subdivision of the four rectangle sides into boundary
// segments, and implements Ruppert-style encroachment: a candidate Steiner
// point that falls inside the diametral circle of a boundary segment must
// not be inserted — the segment midpoint is inserted instead. This is what
// keeps the mesh boundary free of slivers (a point a hair inside the
// boundary would make the boundary edge numerically non-Delaunay and punch
// a hole in the finalized mesh).
class BoundaryTracker {
 public:
  explicit BoundaryTracker(geometry::BoundingBox bounds) : bounds_(bounds) {
    marks_[kBottom] = {bounds.min.x, bounds.max.x};
    marks_[kTop] = {bounds.min.x, bounds.max.x};
    marks_[kLeft] = {bounds.min.y, bounds.max.y};
    marks_[kRight] = {bounds.min.y, bounds.max.y};
  }

  /// Registers an inserted point that lies on a rectangle side.
  void register_point(geometry::Point2 p) {
    if (p.y == bounds_.min.y) marks_[kBottom].insert(p.x);
    if (p.y == bounds_.max.y) marks_[kTop].insert(p.x);
    if (p.x == bounds_.min.x) marks_[kLeft].insert(p.y);
    if (p.x == bounds_.max.x) marks_[kRight].insert(p.y);
  }

  /// If q encroaches a boundary segment, returns that segment's midpoint.
  std::optional<geometry::Point2> encroached_midpoint(
      geometry::Point2 q) const {
    for (int side = 0; side < 4; ++side) {
      const auto hit = check_side(side, q);
      if (hit.has_value()) return hit;
    }
    return std::nullopt;
  }

 private:
  enum Side { kBottom = 0, kTop = 1, kLeft = 2, kRight = 3 };

  std::optional<geometry::Point2> check_side(int side,
                                             geometry::Point2 q) const {
    // Coordinates: `along` runs along the side, `away` is the distance of
    // q from the side's supporting line.
    double along = 0.0;
    double away = 0.0;
    switch (side) {
      case kBottom:
        along = q.x;
        away = q.y - bounds_.min.y;
        break;
      case kTop:
        along = q.x;
        away = bounds_.max.y - q.y;
        break;
      case kLeft:
        along = q.y;
        away = q.x - bounds_.min.x;
        break;
      case kRight:
        along = q.y;
        away = bounds_.max.x - q.x;
        break;
    }
    const auto& marks = marks_[static_cast<std::size_t>(side)];
    // Segment containing `along` (plus its neighbors, which the diametral
    // circle of can also reach q).
    auto hi = marks.upper_bound(along);
    if (hi == marks.begin()) hi = std::next(marks.begin());
    if (hi == marks.end()) hi = std::prev(marks.end());
    auto lo = std::prev(hi);
    for (int probe = -1; probe <= 1; ++probe) {
      auto a = lo;
      auto b = hi;
      if (probe < 0) {
        if (a == marks.begin()) continue;
        b = a;
        a = std::prev(a);
      } else if (probe > 0) {
        if (std::next(b) == marks.end()) continue;
        a = b;
        b = std::next(b);
      }
      const double mid = 0.5 * (*a + *b);
      const double radius = 0.5 * (*b - *a);
      const double d_along = along - mid;
      if (d_along * d_along + away * away < radius * radius * (1.0 - 1e-12))
        return point_on_side(side, mid);
    }
    return std::nullopt;
  }

  geometry::Point2 point_on_side(int side, double along) const {
    switch (side) {
      case kBottom:
        return {along, bounds_.min.y};
      case kTop:
        return {along, bounds_.max.y};
      case kLeft:
        return {bounds_.min.x, along};
      default:
        return {bounds_.max.x, along};
    }
  }

  geometry::BoundingBox bounds_;
  std::array<std::set<double>, 4> marks_;
};

// Seeds boundary points at uniform spacing plus a jittered interior grid.
// Spacing is chosen so the initial triangles are already near the area
// budget; refinement then only needs local fixes.
void seed_points(DelaunayTriangulator& builder, BoundaryTracker& tracker,
                 geometry::BoundingBox bounds, double max_area, Rng& rng) {
  // Target edge length for triangles of area ~ max_area/1.3 (equilateral:
  // area = sqrt(3)/4 * s^2).
  const double s = std::sqrt(4.0 / std::sqrt(3.0) * max_area / 1.3);
  const auto nx = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(bounds.width() / s)));
  const auto ny = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(bounds.height() / s)));
  const double dx = bounds.width() / static_cast<double>(nx);
  const double dy = bounds.height() / static_cast<double>(ny);

  auto insert_boundary = [&](geometry::Point2 p) {
    if (builder.insert(p)) tracker.register_point(p);
  };

  // Boundary points stay exactly on the rectangle edges but their spacing
  // is jittered independently per edge: a uniform grid creates exactly
  // cocircular quadruples (symmetric pairs on parallel edges) that break
  // the strict in-circle predicate of Bowyer-Watson.
  insert_boundary({bounds.min.x, bounds.min.y});
  insert_boundary({bounds.max.x, bounds.min.y});
  insert_boundary({bounds.min.x, bounds.max.y});
  insert_boundary({bounds.max.x, bounds.max.y});
  for (std::size_t i = 1; i < nx; ++i) {
    const double t = static_cast<double>(i);
    insert_boundary(
        {bounds.min.x + dx * (t + rng.uniform(-0.2, 0.2)), bounds.min.y});
    insert_boundary(
        {bounds.min.x + dx * (t + rng.uniform(-0.2, 0.2)), bounds.max.y});
  }
  for (std::size_t j = 1; j < ny; ++j) {
    const double t = static_cast<double>(j);
    insert_boundary(
        {bounds.min.x, bounds.min.y + dy * (t + rng.uniform(-0.2, 0.2))});
    insert_boundary(
        {bounds.max.x, bounds.min.y + dy * (t + rng.uniform(-0.2, 0.2))});
  }
  // Interior: jittered grid offset by half a cell; jitter breaks the exact
  // cocircularities that degrade Bowyer-Watson. Points are kept clear of
  // the boundary by construction (half-cell offset).
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double jx = rng.uniform(-0.15, 0.15) * dx;
      const double jy = rng.uniform(-0.15, 0.15) * dy;
      builder.insert({bounds.min.x + dx * (static_cast<double>(i) + 0.5) + jx,
                      bounds.min.y + dy * (static_cast<double>(j) + 0.5) + jy});
    }
  }
}

// Inserts one Steiner point for an offending triangle, honoring boundary
// encroachment (Ruppert): encroaching candidates are replaced by the
// encroached segment's midpoint.
bool insert_steiner(DelaunayTriangulator& builder, BoundaryTracker& tracker,
                    geometry::BoundingBox bounds,
                    const geometry::Triangle& tri, Rng& rng) {
  auto attempt = [&](geometry::Point2 candidate) {
    const auto encroached = tracker.encroached_midpoint(candidate);
    if (encroached.has_value()) {
      if (builder.insert(*encroached)) {
        tracker.register_point(*encroached);
        return true;
      }
      return false;
    }
    return builder.insert(candidate);
  };

  if (std::abs(geometry::orientation(tri.p[0], tri.p[1], tri.p[2])) > 1e-14) {
    const geometry::Point2 cc = geometry::circumcenter(tri);
    if (bounds.contains(cc) && attempt(cc)) return true;
  }
  if (attempt(tri.centroid())) return true;
  const double u = rng.uniform(0.2, 0.8);
  const double v = rng.uniform(0.1, 1.0 - u);
  return attempt(tri.p[0] + u * (tri.p[1] - tri.p[0]) +
                 v * (tri.p[2] - tri.p[0]));
}

}  // namespace

TriMesh refined_delaunay_mesh(geometry::BoundingBox bounds,
                              const RefinementOptions& options) {
  require(options.max_area > 0.0, "refined_delaunay_mesh: max_area <= 0");
  obs::Span span("mesh.refine");
  Rng rng(options.seed);
  DelaunayTriangulator builder(bounds);
  BoundaryTracker tracker(bounds);
  seed_points(builder, tracker, bounds, options.max_area, rng);

  // Pass-based refinement: each pass rebuilds the mesh once, collects every
  // offending element, and inserts one Steiner point per offender. Area
  // violations shrink geometrically per pass, so few passes suffice; angle
  // improvement is best-effort within a small pass budget (circumcenter
  // refinement with segment splitting reaches the high-20s in practice).
  constexpr int kMaxAreaPasses = 48;
  constexpr int kMaxAnglePasses = 12;
  int insertions = 0;
  obs::Counter& inserted = obs::counter("sckl.mesh.refine.insertions");

  auto fix_oversized = [&](int passes) {
    for (int pass = 0; pass < passes; ++pass) {
      const TriMesh mesh = builder.finalize();
      std::vector<geometry::Triangle> offenders;
      for (std::size_t t = 0; t < mesh.num_triangles(); ++t)
        if (mesh.area(t) > options.max_area)
          offenders.push_back(mesh.triangle(t));
      if (offenders.empty()) return true;
      // The budget fails the run only while offenders remain.
      ensure(insertions < options.max_insertions,
             "refined_delaunay_mesh: cannot satisfy the area constraint");
      bool progressed = false;
      for (const auto& tri : offenders) {
        if (insertions >= options.max_insertions) break;
        if (insert_steiner(builder, tracker, bounds, tri, rng)) {
          ++insertions;
          inserted.add(1);
          progressed = true;
        }
      }
      ensure(progressed,
             "refined_delaunay_mesh: cannot satisfy the area constraint");
    }
    return false;
  };

  ensure(fix_oversized(kMaxAreaPasses),
         "refined_delaunay_mesh: area passes exhausted");

  for (int pass = 0; pass < kMaxAnglePasses; ++pass) {
    const TriMesh mesh = builder.finalize();
    std::vector<geometry::Triangle> offenders;
    for (std::size_t t = 0; t < mesh.num_triangles(); ++t) {
      const geometry::Triangle tri = mesh.triangle(t);
      if (geometry::min_angle_degrees(tri) < options.min_angle_degrees)
        offenders.push_back(tri);
    }
    if (offenders.empty()) break;
    bool progressed = false;
    for (const auto& tri : offenders) {
      if (insertions >= options.max_insertions) break;
      if (insert_steiner(builder, tracker, bounds, tri, rng)) {
        ++insertions;
        inserted.add(1);
        progressed = true;
      }
    }
    // Angle fixes may create fresh area violations; clean them up.
    fix_oversized(8);
    if (!progressed) break;
  }

  TriMesh mesh = builder.finalize();
  const MeshQuality q = mesh.quality();
  ensure(q.max_area <= options.max_area * (1.0 + 1e-9),
         "refined_delaunay_mesh: area constraint not met within budget");
  // Overlap/hole detector: a valid triangulation of the rectangle covers it
  // exactly once, so any Bowyer-Watson corruption shows up here.
  ensure(std::abs(q.total_area - bounds.area()) < 1e-6 * bounds.area(),
         "refined_delaunay_mesh: mesh does not tile the domain");
  obs::counter("sckl.mesh.refine.meshes").add(1);
  obs::gauge("sckl.mesh.refine.triangles")
      .set(static_cast<double>(mesh.num_triangles()));
  return mesh;
}

TriMesh paper_mesh(geometry::BoundingBox bounds, double area_fraction,
                   std::uint64_t seed) {
  RefinementOptions options{};
  options.max_area = bounds.area() * area_fraction;
  options.seed = seed;
  return refined_delaunay_mesh(bounds, options);
}

}  // namespace sckl::mesh
