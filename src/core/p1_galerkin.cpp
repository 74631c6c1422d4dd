#include "core/p1_galerkin.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "linalg/generalized_eigen.h"

namespace sckl::core {
namespace {

// Per-element quadrature data for the P1 assembly: node locations, weights,
// and the three hat-function (barycentric) values at each node.
struct ElementQuadrature {
  std::vector<QuadraturePoint> points;
  std::vector<std::array<double, 3>> hat_values;  // per point
};

ElementQuadrature element_quadrature(const mesh::TriMesh& mesh,
                                     std::size_t t, QuadratureRule rule) {
  const geometry::Triangle tri = mesh.triangle(t);
  ElementQuadrature eq;
  eq.points = quadrature_points(tri, rule);
  eq.hat_values.reserve(eq.points.size());
  for (const auto& q : eq.points)
    eq.hat_values.push_back(geometry::barycentric(tri, q.location));
  return eq;
}

}  // namespace

linalg::Matrix assemble_p1_mass_matrix(const mesh::TriMesh& mesh) {
  const std::size_t nv = mesh.num_vertices();
  linalg::Matrix m(nv, nv);
  for (std::size_t t = 0; t < mesh.num_triangles(); ++t) {
    const auto& idx = mesh.triangle_indices()[t];
    const double a = mesh.area(t);
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        // Exact P1 mass: A/6 diagonal, A/12 off-diagonal per element.
        m(idx[static_cast<std::size_t>(i)], idx[static_cast<std::size_t>(j)]) +=
            (i == j) ? a / 6.0 : a / 12.0;
      }
    }
  }
  return m;
}

linalg::Matrix assemble_p1_kernel_matrix(
    const mesh::TriMesh& mesh, const kernels::CovarianceKernel& kernel,
    QuadratureRule rule) {
  require(rule != QuadratureRule::kCentroid1,
          "assemble_p1_kernel_matrix: centroid rule cannot resolve P1 hats");
  const std::size_t nv = mesh.num_vertices();
  const std::size_t nt = mesh.num_triangles();

  std::vector<ElementQuadrature> elements;
  elements.reserve(nt);
  for (std::size_t t = 0; t < nt; ++t)
    elements.push_back(element_quadrature(mesh, t, rule));

  linalg::Matrix k(nv, nv);
  for (std::size_t s = 0; s < nt; ++s) {
    const auto& es = elements[s];
    const auto& is = mesh.triangle_indices()[s];
    for (std::size_t t = s; t < nt; ++t) {
      const auto& et = elements[t];
      const auto& it = mesh.triangle_indices()[t];
      // 3x3 block of contributions between the two elements' vertices.
      std::array<std::array<double, 3>, 3> block{};
      for (std::size_t qa = 0; qa < es.points.size(); ++qa) {
        for (std::size_t qb = 0; qb < et.points.size(); ++qb) {
          const double kv = es.points[qa].weight * et.points[qb].weight *
                            kernel(es.points[qa].location,
                                   et.points[qb].location);
          for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
              block[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
                  kv * es.hat_values[qa][static_cast<std::size_t>(i)] *
                  et.hat_values[qb][static_cast<std::size_t>(j)];
        }
      }
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          const double value =
              block[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          k(is[static_cast<std::size_t>(i)], it[static_cast<std::size_t>(j)]) +=
              value;
          if (s != t)
            k(it[static_cast<std::size_t>(j)],
              is[static_cast<std::size_t>(i)]) += value;
        }
      }
    }
  }
  return k;
}

P1KleResult::P1KleResult(mesh::TriMesh mesh, linalg::Vector eigenvalues,
                         linalg::Matrix coefficients)
    : mesh_(std::move(mesh)),
      eigenvalues_(std::move(eigenvalues)),
      coefficients_(std::move(coefficients)),
      locator_(mesh_.to_triangles(), mesh_.bounds()) {
  require(coefficients_.rows() == mesh_.num_vertices(),
          "P1KleResult: coefficient rows must match vertex count");
  require(coefficients_.cols() == eigenvalues_.size(),
          "P1KleResult: coefficient columns must match eigenvalue count");
  for (auto& value : eigenvalues_) value = std::max(value, 0.0);
}

double P1KleResult::eigenvalue(std::size_t j) const {
  require(j < eigenvalues_.size(), "P1KleResult::eigenvalue: out of range");
  return eigenvalues_[j];
}

double P1KleResult::coefficient(std::size_t v, std::size_t j) const {
  require(v < coefficients_.rows() && j < coefficients_.cols(),
          "P1KleResult::coefficient: out of range");
  return coefficients_(v, j);
}

double P1KleResult::eigenfunction_value(std::size_t j,
                                        geometry::Point2 x) const {
  require(j < eigenvalues_.size(),
          "P1KleResult::eigenfunction_value: out of range");
  const std::size_t t = locator_.find_containing_or_nearest(x);
  const auto& idx = mesh_.triangle_indices()[t];
  const auto bary = geometry::barycentric(mesh_.triangle(t), x);
  double value = 0.0;
  for (int corner = 0; corner < 3; ++corner)
    value += bary[static_cast<std::size_t>(corner)] *
             coefficients_(idx[static_cast<std::size_t>(corner)], j);
  return value;
}

double P1KleResult::reconstruct_kernel(geometry::Point2 x, geometry::Point2 y,
                                       std::size_t r) const {
  require(r <= eigenvalues_.size(),
          "P1KleResult::reconstruct_kernel: r exceeds computed pairs");
  double sum = 0.0;
  for (std::size_t j = 0; j < r; ++j)
    sum += eigenvalues_[j] * eigenfunction_value(j, x) *
           eigenfunction_value(j, y);
  return sum;
}

P1KleResult solve_p1_kle(mesh::TriMesh mesh,
                         const kernels::CovarianceKernel& kernel,
                         const P1KleOptions& options) {
  const std::size_t nv = mesh.num_vertices();
  const std::size_t m = std::min(options.num_eigenpairs, nv);
  require(m > 0, "solve_p1_kle: need at least one eigenpair");

  const linalg::Matrix kernel_matrix =
      assemble_p1_kernel_matrix(mesh, kernel, options.quadrature);
  const linalg::Matrix mass = assemble_p1_mass_matrix(mesh);
  linalg::SymmetricEigenResult eigen =
      linalg::generalized_symmetric_eigen(kernel_matrix, mass);

  linalg::Vector values(eigen.values.begin(), eigen.values.begin() + m);
  linalg::Matrix coefficients(nv, m);
  for (std::size_t v = 0; v < nv; ++v)
    for (std::size_t j = 0; j < m; ++j)
      coefficients(v, j) = eigen.vectors(v, j);
  return P1KleResult(std::move(mesh), std::move(values),
                     std::move(coefficients));
}

}  // namespace sckl::core
