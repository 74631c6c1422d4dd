// Galerkin assembly of the covariance operator (Sec. 3.2 / 4 of the paper).
//
// With the piecewise-constant basis of eq. 17 the Galerkin system is the
// generalized eigenproblem  K d = lambda Phi d  (eq. 13) with
//   K_ik  = int_{tri_k} int_{tri_i} K(x, y) dx dy     (eq. 18)
//   Phi   = diag(a_i).
// We assemble the *symmetrically scaled* standard form
//   B = Phi^{-1/2} K Phi^{-1/2},  B u = lambda u,  d = Phi^{-1/2} u,
// which keeps the matrix symmetric (unlike the paper's Phi^{-1} K of
// eq. 15, which is similar to B and has the same eigenvalues) so the
// symmetric solvers apply directly and the eigenfunctions come out
// Phi-orthonormal: sum_i d_i^2 a_i = |u|^2 = 1.
//
// With the centroid rule the entries are B_ik = K(c_i, c_k) sqrt(a_i a_k)
// (eq. 21); higher-order rules evaluate the full tensor-product quadrature.
#pragma once

#include "core/quadrature.h"
#include "kernels/covariance_kernel.h"
#include "linalg/matrix.h"
#include "mesh/tri_mesh.h"

namespace sckl::core {

/// Assembles the scaled Galerkin matrix B (n x n, symmetric). Cost is
/// O(n^2 q^2) kernel evaluations for a q-point rule, spread over
/// `num_threads` workers (0 = auto: SCKL_THREADS env, else hardware
/// concurrency) by 64 x 64 tiles of the upper triangle. Every entry is one
/// fixed expression, so B has the same bits at every thread count.
///
/// Errors are those of a serial row-major sweep of the upper triangle: if
/// kernel calls throw, the row-major-first one's exception propagates;
/// otherwise a NaN/Inf entry throws sckl::Error (kNonFinite) naming the
/// row-major-first such entry and the kernel, so NaN never reaches the
/// spectrum.
linalg::Matrix assemble_galerkin_matrix(
    const mesh::TriMesh& mesh, const kernels::CovarianceKernel& kernel,
    QuadratureRule rule = QuadratureRule::kCentroid1,
    std::size_t num_threads = 1);

/// Evaluates the raw double integral K_ik of eq. 18 for one element pair
/// (unscaled; used by the quadrature convergence tests of Theorem 2).
double element_pair_integral(const geometry::Triangle& ti,
                             const geometry::Triangle& tk,
                             const kernels::CovarianceKernel& kernel,
                             QuadratureRule rule);

}  // namespace sckl::core
