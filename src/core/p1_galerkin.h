// Piecewise-linear (P1) Galerkin KLE — the higher-order basis extension.
//
// Sec. 4.2 of the paper: "Higher order piecewise polynomials can also be
// used as the basis set, along with high order numerical integration ...
// there are no restrictions on their use in this setting." This module
// implements the first rung of that ladder: continuous piecewise-linear
// "hat" functions, one per mesh vertex.
//
// With a non-orthogonal basis the Galerkin system stays the *generalized*
// eigenproblem of eq. 13,  K d = lambda M d, with
//   K_vw = int int K(x, y) phi_v(x) phi_w(y) dx dy   (tensor quadrature)
//   M_vw = int phi_v phi_w                           (P1 mass matrix:
//          A/6 on the diagonal and A/12 off, per element of area A).
// Eigenfunctions come out continuous (barycentric interpolation), so the
// reconstructed kernel has no O(h) staircase error — the accuracy gain the
// ablation bench quantifies against the P0 path at equal mesh resolution.
#pragma once

#include "core/kle_solver.h"

namespace sckl::core {

/// Result of the P1 KLE: eigenpairs with continuous eigenfunctions. Like
/// KleResult, it owns the mesh it was solved on.
class P1KleResult {
 public:
  P1KleResult(mesh::TriMesh mesh, linalg::Vector eigenvalues,
              linalg::Matrix coefficients);

  std::size_t num_eigenpairs() const { return eigenvalues_.size(); }
  std::size_t basis_size() const { return coefficients_.rows(); }

  /// j-th largest eigenvalue (clamped at 0).
  double eigenvalue(std::size_t j) const;
  const linalg::Vector& eigenvalues() const { return eigenvalues_; }

  /// Coefficient of eigenfunction j at vertex v (M-orthonormal basis).
  double coefficient(std::size_t v, std::size_t j) const;

  /// Continuous eigenfunction value f_j(x): barycentric interpolation of
  /// the vertex coefficients within the triangle containing x.
  double eigenfunction_value(std::size_t j, geometry::Point2 x) const;

  /// Truncated reconstruction K_hat(x, y) from the first r eigenpairs.
  double reconstruct_kernel(geometry::Point2 x, geometry::Point2 y,
                            std::size_t r) const;

  const mesh::TriMesh& mesh() const { return mesh_; }

 private:
  mesh::TriMesh mesh_;
  linalg::Vector eigenvalues_;
  linalg::Matrix coefficients_;  // num_vertices x m
  geometry::SpatialGrid locator_;
};

/// Options for the P1 solve. Quadrature must be at least kSymmetric3: the
/// integrand K(x,y) phi phi is quadratic in each variable even for constant
/// kernels, and the centroid rule cannot resolve the hat functions.
struct P1KleOptions {
  std::size_t num_eigenpairs = 50;
  QuadratureRule quadrature = QuadratureRule::kSymmetric3;
};

/// Assembles the P1 mass matrix M (num_vertices x num_vertices).
linalg::Matrix assemble_p1_mass_matrix(const mesh::TriMesh& mesh);

/// Assembles the P1 kernel matrix K (num_vertices x num_vertices).
linalg::Matrix assemble_p1_kernel_matrix(const mesh::TriMesh& mesh,
                                         const kernels::CovarianceKernel& kernel,
                                         QuadratureRule rule);

/// Computes the P1 Galerkin KLE of `kernel` on `mesh` (dense generalized
/// eigensolve; intended for n up to a few thousand vertices).
P1KleResult solve_p1_kle(mesh::TriMesh mesh,
                         const kernels::CovarianceKernel& kernel,
                         const P1KleOptions& options = {});

}  // namespace sckl::core
