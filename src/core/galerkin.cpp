#include "core/galerkin.h"

#include <cmath>
#include <vector>

#include "core/symmetric_fill.h"
#include "obs/trace.h"

namespace sckl::core {

double element_pair_integral(const geometry::Triangle& ti,
                             const geometry::Triangle& tk,
                             const kernels::CovarianceKernel& kernel,
                             QuadratureRule rule) {
  const auto qi = quadrature_points(ti, rule);
  const auto qk = quadrature_points(tk, rule);
  double sum = 0.0;
  for (const auto& a : qi)
    for (const auto& b : qk)
      sum += a.weight * b.weight * kernel(a.location, b.location);
  return sum;
}

linalg::Matrix assemble_galerkin_matrix(const mesh::TriMesh& mesh,
                                        const kernels::CovarianceKernel& kernel,
                                        QuadratureRule rule,
                                        std::size_t num_threads) {
  const std::size_t n = mesh.num_triangles();
  obs::Span span("core.galerkin_assembly");

  std::vector<double> sqrt_area(n);
  for (std::size_t i = 0; i < n; ++i) sqrt_area[i] = std::sqrt(mesh.area(i));

  if (rule == QuadratureRule::kCentroid1) {
    // B_ik = K(c_i, c_k) a_i a_k / sqrt(a_i a_k) = K(c_i, c_k) sqrt(a_i a_k).
    const auto& centroids = mesh.centroids();
    return fill_symmetric(
        n,
        [&](std::size_t i, std::size_t k) {
          return kernel(centroids[i], centroids[k]) * sqrt_area[i] *
                 sqrt_area[k];
        },
        kernel, "assemble_galerkin_matrix", num_threads);
  }

  // General rule: precompute per-element quadrature points once.
  std::vector<std::vector<QuadraturePoint>> points(n);
  for (std::size_t i = 0; i < n; ++i)
    points[i] = quadrature_points(mesh.triangle(i), rule);

  return fill_symmetric(
      n,
      [&](std::size_t i, std::size_t k) {
        double sum = 0.0;
        for (const auto& a : points[i])
          for (const auto& c : points[k])
            sum += a.weight * c.weight * kernel(a.location, c.location);
        return sum / (sqrt_area[i] * sqrt_area[k]);
      },
      kernel, "assemble_galerkin_matrix", num_threads);
}

}  // namespace sckl::core
