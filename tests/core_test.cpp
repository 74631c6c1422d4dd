// Tests for src/core — the paper's numerical method itself:
//  - quadrature exactness and the Theorem 2 h-convergence of the element
//    integrals,
//  - Galerkin assembly symmetry/PSD structure,
//  - KLE eigenvalues/eigenfunctions against the analytic solution of the
//    separable exponential kernel (the only closed-form 2-D case, Sec. 3.1),
//  - solve_kle's stages against QL on the assembled matrix, bit for bit
//    where QL is the route, and across SIMD targets on the paper mesh,
//  - Phi-orthonormality of the computed eigenfunctions,
//  - the truncation-selection rule,
//  - kernel reconstruction error (the Fig. 3b experiment in miniature).
// The reduced reconstruction operator of eq. 28 is tested in field_test,
// through the KleFieldSampler that gathers it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/analytic_kle.h"
#include "core/galerkin.h"
#include "core/kle_health.h"
#include "core/kle_solver.h"
#include "core/quadrature.h"
#include "core/truncation.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "linalg/gemm.h"
#include "linalg/symmetric_eigen.h"
#include "mesh/refine.h"
#include "mesh/structured_mesher.h"

namespace sckl::core {
namespace {

using geometry::BoundingBox;
using geometry::Point2;
using geometry::Triangle;

class QuadratureRuleTest : public ::testing::TestWithParam<QuadratureRule> {};

TEST_P(QuadratureRuleTest, WeightsSumToArea) {
  const Triangle t{{Point2{0.2, 0.1}, Point2{1.3, 0.4}, Point2{0.5, 1.7}}};
  double sum = 0.0;
  for (const auto& q : quadrature_points(t, GetParam())) sum += q.weight;
  EXPECT_NEAR(sum, geometry::triangle_area(t), 1e-13);
  EXPECT_EQ(quadrature_points(t, GetParam()).size(),
            static_cast<std::size_t>(quadrature_point_count(GetParam())));
}

TEST_P(QuadratureRuleTest, ExactForConstantsAndLinears) {
  const Triangle t{{Point2{0, 0}, Point2{2, 0}, Point2{0, 2}}};
  const double area = geometry::triangle_area(t);
  EXPECT_NEAR(integrate_on_triangle(t, GetParam(), [](Point2) { return 3.0; }),
              3.0 * area, 1e-12);
  // int x over this triangle = area * centroid_x.
  EXPECT_NEAR(
      integrate_on_triangle(t, GetParam(), [](Point2 p) { return p.x; }),
      area * (2.0 / 3.0), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllRules, QuadratureRuleTest,
                         ::testing::Values(QuadratureRule::kCentroid1,
                                           QuadratureRule::kSymmetric3,
                                           QuadratureRule::kSymmetric7));

TEST(Quadrature, HigherRulesExactForHigherDegree) {
  const Triangle t{{Point2{0, 0}, Point2{1, 0}, Point2{0, 1}}};
  // int over unit right triangle of x^2 = 1/12; x^2 y = 1/60.
  const auto x2 = [](Point2 p) { return p.x * p.x; };
  const auto x2y = [](Point2 p) { return p.x * p.x * p.y; };
  // Centroid rule is *not* exact for quadratics; 3-point and 7-point are.
  EXPECT_GT(std::abs(integrate_on_triangle(t, QuadratureRule::kCentroid1, x2) -
                     1.0 / 12.0),
            1e-4);
  EXPECT_NEAR(integrate_on_triangle(t, QuadratureRule::kSymmetric3, x2),
              1.0 / 12.0, 1e-14);
  EXPECT_NEAR(integrate_on_triangle(t, QuadratureRule::kSymmetric7, x2),
              1.0 / 12.0, 1e-14);
  EXPECT_NEAR(integrate_on_triangle(t, QuadratureRule::kSymmetric7, x2y),
              1.0 / 60.0, 1e-14);
}

TEST(Theorem2, ElementIntegralConvergesLinearlyInH) {
  // |int int K - K(c_i, c_k) a_i a_k| -> 0 as h -> 0 (Theorem 2). Compare
  // the centroid approximation against the 7-point rule on nested meshes.
  const kernels::GaussianKernel kernel(2.33);
  double previous_error = -1.0;
  for (std::size_t grid : {2, 4, 8, 16}) {
    const mesh::TriMesh mesh = mesh::structured_mesh(
        BoundingBox::unit_die(), grid, grid, mesh::StructuredPattern::kDiagonal);
    double worst = 0.0;
    // Probe a handful of element pairs, including self pairs.
    for (std::size_t i = 0; i < mesh.num_triangles();
         i += mesh.num_triangles() / 7 + 1) {
      for (std::size_t k = 0; k < mesh.num_triangles();
           k += mesh.num_triangles() / 5 + 1) {
        const double exact = element_pair_integral(
            mesh.triangle(i), mesh.triangle(k), kernel,
            QuadratureRule::kSymmetric7);
        const double approx =
            kernel(mesh.centroid(i), mesh.centroid(k)) * mesh.area(i) *
            mesh.area(k);
        worst = std::max(worst,
                         std::abs(exact - approx) /
                             (mesh.area(i) * mesh.area(k)));
      }
    }
    if (previous_error > 0.0) {
      EXPECT_LT(worst, previous_error);
    }
    previous_error = worst;
  }
  EXPECT_LT(previous_error, 2e-2);
}

TEST(Galerkin, MatrixIsSymmetricWithPositiveDiagonal) {
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 6, 6, mesh::StructuredPattern::kDiagonal);
  const kernels::GaussianKernel kernel(2.0);
  const linalg::Matrix b = assemble_galerkin_matrix(mesh, kernel);
  EXPECT_TRUE(linalg::is_symmetric(b, 1e-12));
  for (std::size_t i = 0; i < b.rows(); ++i) {
    EXPECT_GT(b(i, i), 0.0);
    // Diagonal entries are K(c,c) * a = a for a normalized kernel.
    EXPECT_NEAR(b(i, i), mesh.area(i), 1e-12);
  }
}

TEST(Galerkin, HigherOrderQuadratureCloseToCentroidOnFineMesh) {
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 8, 8, mesh::StructuredPattern::kDiagonal);
  const kernels::GaussianKernel kernel(2.0);
  const linalg::Matrix b1 =
      assemble_galerkin_matrix(mesh, kernel, QuadratureRule::kCentroid1);
  const linalg::Matrix b3 =
      assemble_galerkin_matrix(mesh, kernel, QuadratureRule::kSymmetric3);
  EXPECT_LT(b1.max_abs_diff(b3), 2e-3);
}

// The serial double loop assemble_galerkin_matrix ran before it was tiled,
// kept as the oracle of the threaded assembly's bits.
linalg::Matrix serial_loop_assembly(const mesh::TriMesh& mesh,
                                    const kernels::CovarianceKernel& kernel,
                                    QuadratureRule rule) {
  const std::size_t n = mesh.num_triangles();
  linalg::Matrix b(n, n);
  std::vector<double> sqrt_area(n);
  for (std::size_t i = 0; i < n; ++i) sqrt_area[i] = std::sqrt(mesh.area(i));
  if (rule == QuadratureRule::kCentroid1) {
    const auto& centroids = mesh.centroids();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = i; k < n; ++k) {
        const double value =
            kernel(centroids[i], centroids[k]) * sqrt_area[i] * sqrt_area[k];
        b(i, k) = value;
        b(k, i) = value;
      }
    }
    return b;
  }
  std::vector<std::vector<QuadraturePoint>> points(n);
  for (std::size_t i = 0; i < n; ++i)
    points[i] = quadrature_points(mesh.triangle(i), rule);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = i; k < n; ++k) {
      double sum = 0.0;
      for (const auto& a : points[i])
        for (const auto& c : points[k])
          sum += a.weight * c.weight * kernel(a.location, c.location);
      const double value = sum / (sqrt_area[i] * sqrt_area[k]);
      b(i, k) = value;
      b(k, i) = value;
    }
  }
  return b;
}

TEST(Galerkin, ThreadedAssemblyMatchesSerialLoop) {
  // A refined mesh whose n is not a multiple of the 64-entry tile edge, so
  // the last tile row and column are partial.
  const mesh::TriMesh mesh =
      mesh::paper_mesh(BoundingBox::unit_die(), 0.005, 3);
  const std::size_t n = mesh.num_triangles();
  ASSERT_GT(n, 128u);
  ASSERT_NE(n % 64, 0u);
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  for (const QuadratureRule rule :
       {QuadratureRule::kCentroid1, QuadratureRule::kSymmetric3}) {
    const linalg::Matrix oracle = serial_loop_assembly(mesh, kernel, rule);
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      const linalg::Matrix b =
          assemble_galerkin_matrix(mesh, kernel, rule, threads);
      ASSERT_EQ(b.rows(), n);
      ASSERT_EQ(b.cols(), n);
      EXPECT_EQ(std::memcmp(b.data(), oracle.data(), n * n * sizeof(double)),
                0)
          << "rule " << static_cast<int>(rule) << ", " << threads
          << " threads";
    }
  }
}

TEST(Analytic1d, RootsSolveTranscendentalEquations) {
  const double c = 1.0;
  const double a = 1.0;
  const auto modes = analytic_exponential_kle_1d(c, a, 8);
  ASSERT_EQ(modes.size(), 8u);
  for (const auto& m : modes) {
    if (m.even) {
      EXPECT_NEAR(c - m.omega * std::tan(m.omega * a), 0.0, 1e-8)
          << "omega=" << m.omega;
    } else {
      EXPECT_NEAR(std::tan(m.omega * a) + m.omega / c, 0.0, 1e-8)
          << "omega=" << m.omega;
    }
    EXPECT_NEAR(m.lambda, 2.0 * c / (m.omega * m.omega + c * c), 1e-12);
  }
  // Descending eigenvalues.
  for (std::size_t i = 1; i < modes.size(); ++i)
    EXPECT_GE(modes[i - 1].lambda, modes[i].lambda);
}

TEST(Analytic1d, EigenfunctionsAreOrthonormal) {
  const auto modes = analytic_exponential_kle_1d(1.3, 1.0, 5);
  // Trapezoid integration of f_i f_j over [-1, 1].
  const int steps = 4000;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    for (std::size_t j = i; j < modes.size(); ++j) {
      double sum = 0.0;
      for (int s = 0; s <= steps; ++s) {
        const double x = -1.0 + 2.0 * s / steps;
        const double value = modes[i].value(x) * modes[j].value(x);
        sum += (s == 0 || s == steps) ? 0.5 * value : value;
      }
      sum *= 2.0 / steps;
      EXPECT_NEAR(sum, i == j ? 1.0 : 0.0, 1e-6) << "pair " << i << "," << j;
    }
  }
}

TEST(Analytic1d, EigenvaluesSumTowardTotalVariance) {
  // sum lambda_i = int_{-a}^{a} K(x,x) dx = 2a. With many modes the partial
  // sum approaches it from below.
  const double a = 1.0;
  const auto modes = analytic_exponential_kle_1d(2.0, a, 200);
  double sum = 0.0;
  for (const auto& m : modes) sum += m.lambda;
  EXPECT_GT(sum, 0.97 * 2.0 * a);
  EXPECT_LT(sum, 2.0 * a + 1e-9);
}

TEST(Analytic2d, ProductStructureAndOrdering) {
  const auto modes = analytic_separable_kle_2d(1.0, 1.0, 10);
  ASSERT_EQ(modes.size(), 10u);
  for (std::size_t i = 1; i < modes.size(); ++i)
    EXPECT_GE(modes[i - 1].lambda, modes[i].lambda);
  for (const auto& m : modes)
    EXPECT_NEAR(m.lambda, m.mode_x.lambda * m.mode_y.lambda, 1e-14);
  // The top mode is the product of the two top 1-D modes.
  const auto one_d = analytic_exponential_kle_1d(1.0, 1.0, 1);
  EXPECT_NEAR(modes[0].lambda, one_d[0].lambda * one_d[0].lambda, 1e-12);
}

TEST(KleSolver, MatchesAnalyticSeparableKernel) {
  // The validation the paper's method rests on: Galerkin eigenvalues of the
  // separable L1 exponential kernel converge to the analytic products.
  const double c = 1.0;
  const kernels::SeparableL1Kernel kernel(c);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 16, 16, mesh::StructuredPattern::kCross);
  KleOptions options;
  options.num_eigenpairs = 10;
  const KleResult kle = solve_kle(mesh, kernel, options);
  const auto analytic = analytic_separable_kle_2d(c, 1.0, 10);
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(kle.eigenvalue(j), analytic[j].lambda,
                0.03 * analytic[0].lambda)
        << "eigenpair " << j;
  }
}

TEST(KleSolver, LanczosRouteMatchesDenseReference) {
  const kernels::GaussianKernel kernel(2.33);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 8, 8, mesh::StructuredPattern::kDiagonal);
  const linalg::SymmetricEigenResult dense = linalg::symmetric_eigen(
      assemble_galerkin_matrix(mesh, kernel, QuadratureRule::kCentroid1));
  KleOptions options;
  options.num_eigenpairs = 12;
  KleSolveInfo info;
  const KleResult kle = solve_kle(mesh, kernel, options, &info);
  EXPECT_EQ(info.operator_used, "dense");
  for (std::size_t j = 0; j < 12; ++j)
    EXPECT_NEAR(kle.eigenvalue(j), dense.values[j], 1e-7 * dense.values[0]);
}

TEST(KleSolver, QlRouteIsTheDenseReferenceBitForBit) {
  // m = n/2 fails the 3m < n Lanczos rule, so the only stage is QL on the
  // assembled matrix: the result is that reference, un-scaled, to the bit.
  const kernels::GaussianKernel kernel(2.33);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 6, 6, mesh::StructuredPattern::kDiagonal);
  const std::size_t n = mesh.num_triangles();
  const linalg::SymmetricEigenResult dense = linalg::symmetric_eigen(
      assemble_galerkin_matrix(mesh, kernel, QuadratureRule::kCentroid1));
  KleOptions options;
  options.num_eigenpairs = n / 2;
  KleSolveInfo info;
  const KleResult kle = solve_kle(mesh, kernel, options, &info);
  EXPECT_EQ(info.operator_used, "ql");
  ASSERT_EQ(kle.num_eigenpairs(), n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) {
    EXPECT_EQ(kle.eigenvalue(j), std::max(dense.values[j], 0.0)) << j;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(kle.coefficient(i, j),
                dense.vectors(i, j) * (1.0 / std::sqrt(mesh.area(i))))
          << "triangle " << i << " pair " << j;
  }
}

// Sets SCKL_THREADS, which solve_kle's auto thread count reads, for its
// lifetime and restores the previous value.
class ScopedScklThreads {
 public:
  explicit ScopedScklThreads(std::size_t threads) {
    if (const char* saved = std::getenv("SCKL_THREADS")) saved_ = saved;
    setenv("SCKL_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ScopedScklThreads() {
    if (saved_)
      setenv("SCKL_THREADS", saved_->c_str(), 1);
    else
      unsetenv("SCKL_THREADS");
  }

 private:
  std::optional<std::string> saved_;
};

TEST(KleSolver, BitIdenticalAcrossSimdTargets) {
  // The paper mesh and the ssta_flow default m = 50: the threaded assembly
  // and Lanczos on the dispatched, row-split gemv give the same bits on
  // every SIMD target at every SCKL_THREADS count.
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh =
      mesh::paper_mesh(BoundingBox::unit_die(), 0.001, 8);
  const std::size_t n = mesh.num_triangles();
  KleOptions options;
  options.num_eigenpairs = 50;
  std::optional<KleResult> reference;
  for (const linalg::SimdTarget target :
       {linalg::SimdTarget::kScalar, linalg::SimdTarget::kAvx2,
        linalg::SimdTarget::kAvx512}) {
    if (!linalg::simd_target_supported(target)) continue;
    for (const std::size_t threads : {1, 2, 4}) {
      const ScopedScklThreads scoped_threads(threads);
      linalg::set_simd_target(target);
      const KleResult kle = solve_kle(mesh, kernel, options);
      linalg::reset_simd_target();
      if (!reference) {
        reference.emplace(kle);
        continue;
      }
      const char* name = linalg::simd_target_name(target);
      EXPECT_EQ(std::memcmp(kle.eigenvalues().data(),
                            reference->eigenvalues().data(),
                            50 * sizeof(double)),
                0)
          << name << ", " << threads << " threads";
      EXPECT_EQ(std::memcmp(kle.coefficients().data(),
                            reference->coefficients().data(),
                            n * 50 * sizeof(double)),
                0)
          << name << ", " << threads << " threads";
    }
  }
}

TEST(KleSolver, EigenfunctionsArePhiOrthonormal) {
  const kernels::GaussianKernel kernel(2.33);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 9, 9, mesh::StructuredPattern::kDiagonal);
  KleOptions options;
  options.num_eigenpairs = 8;
  const KleResult kle = solve_kle(mesh, kernel, options);
  for (std::size_t p = 0; p < 8; ++p) {
    for (std::size_t q = p; q < 8; ++q) {
      double inner = 0.0;
      for (std::size_t i = 0; i < mesh.num_triangles(); ++i)
        inner += kle.coefficient(i, p) * kle.coefficient(i, q) * mesh.area(i);
      EXPECT_NEAR(inner, p == q ? 1.0 : 0.0, 1e-9) << p << "," << q;
    }
  }
}

TEST(KleSolver, EigenvalueSumApproachesDomainVariance) {
  // For a normalized kernel, sum of all eigenvalues = area(D) = 4; the top
  // 60 should capture almost all of it for the paper's Gaussian kernel.
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 12, 12, mesh::StructuredPattern::kDiagonal);
  KleOptions options;
  options.num_eigenpairs = 60;
  const KleResult kle = solve_kle(mesh, kernel, options);
  double sum = 0.0;
  for (std::size_t j = 0; j < 60; ++j) sum += kle.eigenvalue(j);
  EXPECT_GT(sum, 0.95 * 4.0);
  EXPECT_LT(sum, 4.0 + 1e-6);
  EXPECT_GT(kle.captured_variance_fraction(60, 4.0), 0.95);
}

TEST(KleSolver, KernelReconstructionErrorIsSmall) {
  // Fig. 3b in miniature: reconstruct K(x, 0) from 25 eigenpairs; the paper
  // reports max error 0.016 on its (finer) mesh. Evaluation is at triangle
  // centroids: the piecewise-constant basis is exact there to O(h^2), which
  // is what the paper's figure shows (pointwise between centroids the basis
  // itself adds O(h) staircase error regardless of r).
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 14, 14, mesh::StructuredPattern::kCross);
  KleOptions options;
  options.num_eigenpairs = 25;
  const KleResult kle = solve_kle(mesh, kernel, options);
  double worst = 0.0;
  const Point2 origin = mesh.centroid(kle.triangle_of({0.0, 0.0}));
  for (std::size_t t = 0; t < mesh.num_triangles(); ++t) {
    const Point2 p = mesh.centroid(t);
    worst = std::max(worst, std::abs(kle.reconstruct_kernel(p, origin, 25) -
                                     kernel(p, origin)));
  }
  EXPECT_LT(worst, 0.05);  // coarser mesh than the paper's -> looser bound
}

TEST(KleSolver, MoreEigenpairsReduceReconstructionError) {
  const kernels::GaussianKernel kernel(2.33);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 12, 12, mesh::StructuredPattern::kCross);
  KleOptions options;
  options.num_eigenpairs = 30;
  const KleResult kle = solve_kle(mesh, kernel, options);
  const Point2 origin = mesh.centroid(kle.triangle_of({0.0, 0.0}));
  auto max_error = [&](std::size_t r) {
    double worst = 0.0;
    for (std::size_t t = 0; t < mesh.num_triangles(); t += 3)
      worst = std::max(
          worst, std::abs(kle.reconstruct_kernel(mesh.centroid(t), origin, r) -
                          kernel(mesh.centroid(t), origin)));
    return worst;
  };
  const double e5 = max_error(5);
  const double e15 = max_error(15);
  const double e30 = max_error(30);
  EXPECT_GT(e5, e15);
  EXPECT_GE(e15, e30 - 1e-6);
}

TEST(KleResult, OutlivesTheMeshItWasSolvedOn) {
  // The mesh is a temporary that dies with the full expression; the result
  // must keep reading its own copy.
  const kernels::GaussianKernel kernel(2.0);
  KleOptions options;
  options.num_eigenpairs = 8;
  const KleResult kle = solve_kle(
      mesh::structured_mesh_for_count(BoundingBox::unit_die(), 200), kernel,
      options);
  double area = 0.0;
  for (std::size_t i = 0; i < kle.basis_size(); ++i) area += kle.mesh().area(i);
  EXPECT_NEAR(area, 4.0, 1e-12);  // the die [-1, 1]^2
  EXPECT_TRUE(check_kle_health(kle).ok());
}

TEST(Truncation, PaperCriterionSelectsSmallR) {
  // Spectrum decaying like the Gaussian kernel's: geometric decay.
  linalg::Vector values;
  for (int i = 0; i < 200; ++i) values.push_back(std::pow(0.8, i));
  const std::size_t r = select_truncation(values, 1546, 0.01);
  EXPECT_GT(r, 5u);
  EXPECT_LT(r, 120u);
  // Criterion holds at r and fails at r-1.
  double retained = 0.0;
  for (std::size_t i = 0; i < r; ++i) retained += values[i];
  EXPECT_LE(discarded_variance_bound(values, 1546, r), 0.01 * retained);
  double retained_prev = retained - values[r - 1];
  EXPECT_GT(discarded_variance_bound(values, 1546, r - 1),
            0.01 * retained_prev);
}

TEST(Truncation, ThrowsWhenCriterionUnreachable) {
  // Flat spectrum: the (n - m) lambda_m bound can never pass.
  linalg::Vector flat(10, 1.0);
  EXPECT_THROW(select_truncation(flat, 1000, 0.01), Error);
  EXPECT_THROW(select_truncation({}, 10, 0.01), Error);
}

}  // namespace
}  // namespace sckl::core
