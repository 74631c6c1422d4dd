// Tests for the higher-order extension: generalized symmetric eigensolver
// and the P1 (piecewise-linear) Galerkin KLE the paper mentions in Sec. 4.2.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "core/analytic_kle.h"
#include "core/p1_galerkin.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "linalg/generalized_eigen.h"
#include "mesh/structured_mesher.h"

namespace sckl {
namespace {

using geometry::BoundingBox;
using linalg::Matrix;
using linalg::Vector;

Matrix random_spd(std::size_t n, Rng& rng, double ridge) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.normal();
  Matrix a = linalg::gemm_fast(b, b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += ridge;
  return a;
}

TEST(TriangularSolve, ForwardAndBackwardInvertCholesky) {
  Rng rng(3);
  const Matrix m = random_spd(8, rng, 8.0);
  const linalg::CholeskyFactor f = linalg::cholesky(m);
  Matrix rhs(8, 2);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 2; ++j) rhs(i, j) = rng.normal();
  Matrix x = rhs;
  linalg::solve_lower_triangular_inplace(f.lower, x);
  // L x should reproduce rhs.
  const Matrix lx = linalg::gemm_fast(f.lower, x);
  EXPECT_LT(lx.max_abs_diff(rhs), 1e-10);

  Matrix y = rhs;
  linalg::solve_lower_transposed_inplace(f.lower, y);
  const Matrix lty = linalg::gemm_fast(f.lower.transposed(), y);
  EXPECT_LT(lty.max_abs_diff(rhs), 1e-10);
}

TEST(GeneralizedEigen, ReducesToOrdinaryWhenMIsIdentity) {
  Rng rng(4);
  Matrix a = random_spd(10, rng, 2.0);
  const Matrix m = Matrix::identity(10);
  const auto general = linalg::generalized_symmetric_eigen(a, m);
  const auto ordinary = linalg::symmetric_eigen(a);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(general.values[i], ordinary.values[i],
                1e-9 * ordinary.values[0]);
}

TEST(GeneralizedEigen, SatisfiesDefinitionAndMOrthonormality) {
  Rng rng(5);
  const Matrix a = random_spd(12, rng, 1.0);
  const Matrix m = random_spd(12, rng, 14.0);
  const auto result = linalg::generalized_symmetric_eigen(a, m);
  for (std::size_t j = 0; j < 12; ++j) {
    Vector d(12);
    for (std::size_t i = 0; i < 12; ++i) d[i] = result.vectors(i, j);
    const Vector ad = linalg::gemv_fast(a, d);
    const Vector md = linalg::gemv_fast(m, d);
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(ad[i], result.values[j] * md[i],
                  1e-8 * std::abs(result.values[0]))
          << "pair " << j;
  }
  // d_i^T M d_j = delta_ij.
  for (std::size_t p = 0; p < 12; ++p) {
    Vector dp(12);
    for (std::size_t i = 0; i < 12; ++i) dp[i] = result.vectors(i, p);
    const Vector mdp = linalg::gemv_fast(m, dp);
    for (std::size_t q = p; q < 12; ++q) {
      Vector dq(12);
      for (std::size_t i = 0; i < 12; ++i) dq[i] = result.vectors(i, q);
      EXPECT_NEAR(linalg::dot(dq, mdp), p == q ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(GeneralizedEigen, RejectsIndefiniteMass) {
  const Matrix a = Matrix::identity(2);
  Matrix m = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_THROW(linalg::generalized_symmetric_eigen(a, m), Error);
}

TEST(P1Mass, RowSumsIntegrateHatFunctions) {
  // sum_w M_vw = int phi_v = (1/3) * area of the triangles touching v;
  // the grand total is the domain area.
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 5, 5, mesh::StructuredPattern::kDiagonal);
  const linalg::Matrix m = core::assemble_p1_mass_matrix(mesh);
  double total = 0.0;
  for (std::size_t v = 0; v < m.rows(); ++v)
    for (std::size_t w = 0; w < m.cols(); ++w) total += m(v, w);
  EXPECT_NEAR(total, 4.0, 1e-10);
  EXPECT_TRUE(linalg::is_symmetric(m, 1e-12));
}

TEST(P1Kernel, RejectsCentroidRule) {
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 3, 3, mesh::StructuredPattern::kDiagonal);
  const kernels::GaussianKernel kernel(2.0);
  EXPECT_THROW(core::assemble_p1_kernel_matrix(
                   mesh, kernel, core::QuadratureRule::kCentroid1),
               Error);
}

TEST(P1Kernel, TotalVarianceMatchesDomainArea) {
  // For a normalized kernel, sum over all eigenvalues of the P1 KLE also
  // approximates area(D): check via the trace identity
  // trace(M^{-1} K) = sum lambda, using the solver's full spectrum.
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 6, 6, mesh::StructuredPattern::kDiagonal);
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  core::P1KleOptions options;
  options.num_eigenpairs = mesh.num_vertices();
  const core::P1KleResult kle = core::solve_p1_kle(mesh, kernel, options);
  double sum = 0.0;
  for (std::size_t j = 0; j < kle.num_eigenpairs(); ++j)
    sum += kle.eigenvalue(j);
  EXPECT_NEAR(sum, 4.0, 0.15);  // quadrature error only
}

TEST(P1Kle, OutlivesTheMeshItWasSolvedOn) {
  // eigenfunction_value reads the mesh on every call, so a result solved on
  // a temporary mesh must hold its own copy.
  const kernels::GaussianKernel kernel(2.0);
  core::P1KleOptions options;
  options.num_eigenpairs = 8;
  const core::P1KleResult kle = core::solve_p1_kle(
      mesh::structured_mesh_for_count(BoundingBox::unit_die(), 200), kernel,
      options);
  double area = 0.0;
  for (std::size_t i = 0; i < kle.mesh().num_triangles(); ++i)
    area += kle.mesh().area(i);
  EXPECT_NEAR(area, 4.0, 1e-12);  // the die [-1, 1]^2

  const mesh::TriMesh mesh =
      mesh::structured_mesh_for_count(BoundingBox::unit_die(), 200);
  const core::P1KleResult reference =
      core::solve_p1_kle(mesh, kernel, options);
  for (const geometry::Point2 x : {geometry::Point2{0.1, -0.2},
                                   geometry::Point2{-0.7, 0.45}})
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_EQ(kle.eigenfunction_value(j, x),
                reference.eigenfunction_value(j, x))
          << "pair " << j;
}

TEST(P1Kle, MatchesAnalyticSeparableKernel) {
  const double c = 1.0;
  const kernels::SeparableL1Kernel kernel(c);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 10, 10, mesh::StructuredPattern::kCross);
  core::P1KleOptions options;
  options.num_eigenpairs = 6;
  const core::P1KleResult kle = core::solve_p1_kle(mesh, kernel, options);
  const auto analytic = core::analytic_separable_kle_2d(c, 1.0, 6);
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(kle.eigenvalue(j), analytic[j].lambda,
                0.02 * analytic[0].lambda)
        << "pair " << j;
}

TEST(P1Kle, MoreAccurateThanP0AtEqualMesh) {
  // The headline of the extension: on the same mesh, the P1 eigenvalues
  // are closer to the analytic values than the P0 ones.
  const double c = 1.0;
  const kernels::SeparableL1Kernel kernel(c);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 8, 8, mesh::StructuredPattern::kCross);
  const auto analytic = core::analytic_separable_kle_2d(c, 1.0, 5);

  core::KleOptions p0_options;
  p0_options.num_eigenpairs = 5;
  const core::KleResult p0 = core::solve_kle(mesh, kernel, p0_options);

  core::P1KleOptions p1_options;
  p1_options.num_eigenpairs = 5;
  const core::P1KleResult p1 = core::solve_p1_kle(mesh, kernel, p1_options);

  double p0_error = 0.0;
  double p1_error = 0.0;
  for (std::size_t j = 0; j < 5; ++j) {
    p0_error = std::max(p0_error,
                        std::abs(p0.eigenvalue(j) - analytic[j].lambda));
    p1_error = std::max(p1_error,
                        std::abs(p1.eigenvalue(j) - analytic[j].lambda));
  }
  EXPECT_LT(p1_error, p0_error);
}

TEST(P1Kle, EigenfunctionIsContinuousAcrossEdges) {
  const kernels::GaussianKernel kernel(2.33);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 6, 6, mesh::StructuredPattern::kDiagonal);
  core::P1KleOptions options;
  options.num_eigenpairs = 3;
  const core::P1KleResult kle = core::solve_p1_kle(mesh, kernel, options);
  // Sample along a line crossing many elements; adjacent samples must vary
  // smoothly (no O(1) jumps as with the P0 basis).
  double previous = kle.eigenfunction_value(0, {-0.9, 0.05});
  for (double x = -0.9 + 0.01; x <= 0.9; x += 0.01) {
    const double value = kle.eigenfunction_value(0, {x, 0.05});
    EXPECT_LT(std::abs(value - previous), 0.05) << "at x=" << x;
    previous = value;
  }
}

TEST(P1Kle, KernelReconstructionBeatsP0Pointwise) {
  // Continuity pays off where the P0 basis has its staircase error: at
  // arbitrary (non-centroid) evaluation points.
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 8, 8, mesh::StructuredPattern::kCross);

  core::KleOptions p0_options;
  p0_options.num_eigenpairs = 25;
  const core::KleResult p0 = core::solve_kle(mesh, kernel, p0_options);
  core::P1KleOptions p1_options;
  p1_options.num_eigenpairs = 25;
  const core::P1KleResult p1 = core::solve_p1_kle(mesh, kernel, p1_options);

  const geometry::Point2 origin{0.013, -0.021};  // deliberately off-centroid
  double p0_worst = 0.0;
  double p1_worst = 0.0;
  Rng rng(11);
  for (int probe = 0; probe < 300; ++probe) {
    const geometry::Point2 p{rng.uniform(-0.95, 0.95),
                             rng.uniform(-0.95, 0.95)};
    const double truth = kernel(p, origin);
    p0_worst = std::max(p0_worst,
                        std::abs(p0.reconstruct_kernel(p, origin, 25) - truth));
    p1_worst = std::max(p1_worst,
                        std::abs(p1.reconstruct_kernel(p, origin, 25) - truth));
  }
  EXPECT_LT(p1_worst, p0_worst);
  EXPECT_LT(p1_worst, 0.05);
}

}  // namespace
}  // namespace sckl
