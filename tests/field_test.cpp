// Tests for src/field: both samplers must reproduce the kernel's covariance
// empirically (Algorithm 1 exactly, Algorithm 2 up to truncation error),
// the latent-dimension bookkeeping that drives the paper's speedup, the
// KLE sampler's one reconstruction operator (the gathered rows of eq. 28's
// D_lambda, checked bit for bit against an in-test oracle), and the
// index-addressed draw contract (sample i depends only on (key, i)).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "core/kle_solver.h"
#include "field/cholesky_sampler.h"
#include "field/covariance_estimate.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "linalg/gemm.h"
#include "mesh/structured_mesher.h"
#include "reference_cholesky.h"

namespace sckl::field {
namespace {

using geometry::BoundingBox;
using geometry::Point2;

std::vector<Point2> test_locations() {
  return {{0.0, 0.0},  {0.1, 0.05},  {-0.5, 0.5}, {0.8, -0.7},
          {-0.9, -0.9}, {0.45, 0.45}, {0.5, -0.5}, {-0.2, 0.7}};
}

TEST(CholeskySampler, LatentDimensionIsGateCount) {
  const kernels::GaussianKernel kernel(2.33);
  const CholeskyFieldSampler sampler(kernel, test_locations());
  EXPECT_EQ(sampler.num_locations(), 8u);
  EXPECT_EQ(sampler.latent_dimension(), 8u);
}

TEST(CholeskySampler, EmpiricalCovarianceMatchesKernel) {
  const kernels::GaussianKernel kernel(2.33);
  const auto locations = test_locations();
  const CholeskyFieldSampler sampler(kernel, locations);
  const linalg::Matrix cov =
      empirical_covariance(sampler, 60000, StreamKey{21, 0});
  const CovarianceErrorSummary s =
      compare_covariance(cov, kernel, locations);
  // Monte Carlo noise at 60K samples: ~1/sqrt(N) ~ 0.004; allow 4x.
  EXPECT_LT(s.max_abs_error, 0.03);
  EXPECT_LT(s.max_diag_error, 0.03);
}

TEST(CholeskySampler, HandlesNearSingularGram) {
  // Two nearly coincident points make the Gram matrix numerically
  // semi-definite; the jitter path must absorb it.
  std::vector<Point2> locations = {{0.0, 0.0}, {1e-9, 0.0}, {0.5, 0.5}};
  const kernels::GaussianKernel kernel(2.0);
  const CholeskyFieldSampler sampler(kernel, locations);
  linalg::Matrix block;
  sampler.sample_block(SampleRange{0, 100}, StreamKey{22, 0}, block);
  // Coincident points get (essentially) identical samples.
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_NEAR(block(i, 0), block(i, 1), 1e-3);
}

TEST(CholeskySampler, BackwardErrorMatchesReferenceFactor) {
  // A Gaussian Gram at N = 600 random locations is numerically
  // semi-definite. The sampler's U = L^T (factored and transposed in the
  // Gram's own storage) must reproduce K + jitter I as closely as the
  // unblocked reference factor of the same matrix does.
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  Rng rng(31);
  std::vector<Point2> locations(600);
  for (Point2& p : locations) p = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const CholeskyFieldSampler sampler(kernel, locations);
  const std::size_t n = locations.size();
  linalg::Matrix shifted(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      shifted(i, j) = kernel(locations[i], locations[j]) +
                      (i == j ? sampler.jitter() : 0.0);
  const linalg::Matrix& u = sampler.operator_transposed();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) ASSERT_EQ(u(i, j), 0.0);
  const double blocked =
      linalg::gemm_fast(u.transposed(), u).max_abs_diff(shifted);
  const linalg::Matrix l = linalg::reference_cholesky(shifted);
  const double reference =
      linalg::gemm_fast(l, l.transposed()).max_abs_diff(shifted);
  EXPECT_LE(blocked, 1e-13);
  EXPECT_LE(blocked, 2.0 * reference);
}

TEST(CholeskySampler, RejectsEmptyLocations) {
  const kernels::GaussianKernel kernel(2.0);
  EXPECT_THROW(CholeskyFieldSampler(kernel, {}), Error);
}

class KleSamplerTest : public ::testing::Test {
 protected:
  KleSamplerTest()
      : kernel_(kernels::paper_gaussian_c()),
        mesh_(mesh::structured_mesh(BoundingBox::unit_die(), 14, 14,
                                    mesh::StructuredPattern::kCross)) {}

  core::KleResult solve(std::size_t pairs) {
    core::KleOptions options;
    options.num_eigenpairs = pairs;
    return core::solve_kle(mesh_, kernel_, options);
  }

  kernels::GaussianKernel kernel_;
  mesh::TriMesh mesh_;
};

TEST_F(KleSamplerTest, LatentDimensionIsR) {
  const core::KleResult kle = solve(30);
  const KleFieldSampler sampler(kle, 25, test_locations());
  EXPECT_EQ(sampler.latent_dimension(), 25u);
  EXPECT_EQ(sampler.num_locations(), 8u);
}

TEST_F(KleSamplerTest, EmpiricalCovarianceMatchesKernelUpToTruncation) {
  const core::KleResult kle = solve(40);
  const auto locations = test_locations();
  const KleFieldSampler sampler(kle, 40, locations);
  const linalg::Matrix cov =
      empirical_covariance(sampler, 60000, StreamKey{23, 0});
  const CovarianceErrorSummary s =
      compare_covariance(cov, kernel_, locations);
  // Truncation (r=40 on a coarse mesh) + the piecewise-constant basis error
  // at off-centroid gate locations (O(h) ~ 0.1 here) + MC noise; the paper's
  // finer mesh pushes this to the few-percent level.
  EXPECT_LT(s.max_abs_error, 0.13);
}

TEST_F(KleSamplerTest, TruncationErrorDecreasesWithR) {
  const core::KleResult kle = solve(40);
  const auto locations = test_locations();
  const KleFieldSampler small(kle, 4, locations);
  const KleFieldSampler large(kle, 40, locations);
  const auto err_small = compare_covariance(
      empirical_covariance(small, 40000, StreamKey{24, 0}), kernel_,
      locations);
  const auto err_large = compare_covariance(
      empirical_covariance(large, 40000, StreamKey{24, 0}), kernel_,
      locations);
  EXPECT_GT(err_small.max_abs_error, err_large.max_abs_error);
}

TEST_F(KleSamplerTest, SampleBlockIsDeterministicInKey) {
  const core::KleResult kle = solve(20);
  const KleFieldSampler sampler(kle, 10, test_locations());
  linalg::Matrix a;
  linalg::Matrix b;
  sampler.sample_block(SampleRange{0, 16}, StreamKey{25, 0}, a);
  sampler.sample_block(SampleRange{0, 16}, StreamKey{25, 0}, b);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST_F(KleSamplerTest, SampleIsIndexAddressedAcrossBlockBoundaries) {
  // The core stateless-draw contract: row i of the stream depends only on
  // (key, i), never on where the block containing it started.
  const core::KleResult kle = solve(20);
  const KleFieldSampler sampler(kle, 10, test_locations());
  linalg::Matrix whole;
  linalg::Matrix tail;
  sampler.sample_block(SampleRange{0, 16}, StreamKey{25, 3}, whole);
  sampler.sample_block(SampleRange{8, 8}, StreamKey{25, 3}, tail);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t c = 0; c < sampler.num_locations(); ++c)
      EXPECT_EQ(tail(i, c), whole(8 + i, c)) << "row " << i << " col " << c;
}

TEST_F(KleSamplerTest, DistinctKeysGiveDistinctStreams) {
  const core::KleResult kle = solve(20);
  const KleFieldSampler sampler(kle, 10, test_locations());
  linalg::Matrix a;
  linalg::Matrix b;
  linalg::Matrix c;
  sampler.sample_block(SampleRange{0, 4}, StreamKey{25, 0}, a);
  sampler.sample_block(SampleRange{0, 4}, StreamKey{25, 1}, b);
  sampler.sample_block(SampleRange{0, 4}, StreamKey{26, 0}, c);
  EXPECT_GT(a.max_abs_diff(b), 0.0);
  EXPECT_GT(a.max_abs_diff(c), 0.0);
}

TEST_F(KleSamplerTest, NearbyLocationsAreStronglyCorrelated) {
  const core::KleResult kle = solve(40);
  const std::vector<Point2> locations = {
      {0.0, 0.0}, {0.05, 0.0}, {0.9, 0.9}};  // two close, one far
  const KleFieldSampler sampler(kle, 40, locations);
  linalg::Matrix block;
  sampler.sample_block(SampleRange{0, 20000}, StreamKey{26, 0}, block);
  CovarianceAccumulator close_pair;
  CovarianceAccumulator far_pair;
  for (std::size_t i = 0; i < 20000; ++i) {
    close_pair.add(block(i, 0), block(i, 1));
    far_pair.add(block(i, 0), block(i, 2));
  }
  EXPECT_GT(close_pair.correlation(), 0.9);
  EXPECT_LT(std::abs(far_pair.correlation()), 0.2);
}

TEST_F(KleSamplerTest, StagedStagesComposeToSampleBlock) {
  // The staged API contract: sample_block is exactly latent_block followed
  // by reconstruct — bit-for-bit, so callers that manage their own latent
  // scratch (mc_ssta, serve) stay on the composed path's stream.
  const core::KleResult kle = solve(20);
  const KleFieldSampler sampler(kle, 10, test_locations());
  const SampleRange range{5, 16};
  const StreamKey key{27, 2};
  linalg::Matrix composed;
  sampler.sample_block(range, key, composed);

  linalg::Matrix xi;
  sampler.latent_block(range, key, xi);
  EXPECT_EQ(xi.rows(), 16u);
  EXPECT_EQ(xi.cols(), sampler.latent_dimension());
  linalg::Matrix staged;
  sampler.reconstruct(xi, staged);
  ASSERT_EQ(staged.rows(), composed.rows());
  ASSERT_EQ(staged.cols(), composed.cols());
  EXPECT_EQ(staged.max_abs_diff(composed), 0.0);

  // Latents are the raw counter-RNG draws: row i of xi is the normal row
  // at index range.first + i, independent of the sampler's operator.
  const CounterRng rng(key);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t c = 0; c < sampler.latent_dimension(); ++c)
      ASSERT_EQ(xi(i, c), rng.normal(range.first + i, c));
}

TEST_F(KleSamplerTest, ReconstructRejectsLatentDimensionMismatch) {
  const core::KleResult kle = solve(20);
  const KleFieldSampler sampler(kle, 10, test_locations());
  linalg::Matrix xi(4, 7);  // wrong: latent_dimension is 10
  xi.fill(0.0);
  linalg::Matrix out;
  EXPECT_THROW(sampler.reconstruct(xi, out), Error);
}

TEST_F(KleSamplerTest, SampleBitsInvariantAcrossDispatchTargets) {
  // The determinism contract of linalg/gemm: forcing the scalar kernels
  // (CI runs whole suites under SCKL_SIMD=scalar) must reproduce the SIMD
  // sample stream exactly.
  const core::KleResult kle = solve(20);
  const KleFieldSampler sampler(kle, 10, test_locations());
  const SampleRange range{0, 33};
  const StreamKey key{28, 0};
  linalg::Matrix reference;
  {
    linalg::set_simd_target(linalg::SimdTarget::kScalar);
    sampler.sample_block(range, key, reference);
    linalg::reset_simd_target();
  }
  for (const linalg::SimdTarget target :
       {linalg::SimdTarget::kScalar, linalg::SimdTarget::kAvx2,
        linalg::SimdTarget::kAvx512}) {
    if (!linalg::simd_target_supported(target)) continue;
    linalg::set_simd_target(target);
    linalg::Matrix block;
    sampler.sample_block(range, key, block);
    linalg::reset_simd_target();
    EXPECT_EQ(block.max_abs_diff(reference), 0.0)
        << linalg::simd_target_name(target);
  }
}

TEST_F(KleSamplerTest, VarianceAtLocationApproachesUnity) {
  // Var p(x) = sum_j lambda_j f_j(x)^2 -> K(x,x) = 1 as r grows.
  const core::KleResult kle = solve(40);
  const std::vector<Point2> locations = {{0.0, 0.0}, {0.5, -0.5}};
  const KleFieldSampler sampler(kle, 40, locations);
  const linalg::Matrix& g_t = sampler.operator_transposed();
  for (std::size_t i = 0; i < locations.size(); ++i) {
    double variance = 0.0;
    for (std::size_t j = 0; j < 40; ++j) variance += g_t(j, i) * g_t(j, i);
    EXPECT_NEAR(variance, 1.0, 0.08) << "location " << i;
  }
}

TEST(KleSampler, ReconstructionMatchesOperatorRows) {
  // Eq. 28 gathered at the locations: the sampler's one matrix is
  // G^T(j, i) = d(tri_i, j) sqrt(lambda_j), and sampling is exactly the
  // shared latent draw times that matrix, on every SIMD target.
  const kernels::GaussianKernel kernel(2.33);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      BoundingBox::unit_die(), 8, 8, mesh::StructuredPattern::kDiagonal);
  core::KleOptions options;
  options.num_eigenpairs = 10;
  const core::KleResult kle = core::solve_kle(mesh, kernel, options);

  const std::vector<Point2> locations = {
      {0.1, 0.1}, {-0.7, 0.3}, {0.9, -0.9}, {0.0, 0.0}};
  constexpr std::size_t kR = 6;
  const KleFieldSampler sampler(kle, kR, locations);
  EXPECT_EQ(sampler.latent_dimension(), kR);
  EXPECT_EQ(sampler.num_locations(), 4u);
  EXPECT_EQ(sampler.out_of_mesh_count(), 0u);
  EXPECT_EQ(sampler.matrix_bytes(),
            kR * locations.size() * sizeof(double));

  linalg::Matrix oracle(kR, locations.size());
  for (std::size_t i = 0; i < locations.size(); ++i) {
    const std::size_t tri = kle.triangle_of(locations[i]);
    for (std::size_t j = 0; j < kR; ++j)
      oracle(j, i) = kle.coefficient(tri, j) * std::sqrt(kle.eigenvalue(j));
  }
  const linalg::Matrix& op_t = sampler.operator_transposed();
  ASSERT_EQ(op_t.rows(), kR);
  ASSERT_EQ(op_t.cols(), locations.size());
  EXPECT_EQ(std::memcmp(op_t.data(), oracle.data(),
                        oracle.rows() * oracle.cols() * sizeof(double)),
            0);

  const SampleRange range{3, 9};
  const StreamKey key{17, 0};
  for (const linalg::SimdTarget target :
       {linalg::SimdTarget::kScalar, linalg::SimdTarget::kAvx2,
        linalg::SimdTarget::kAvx512}) {
    if (!linalg::simd_target_supported(target)) continue;
    linalg::set_simd_target(target);
    linalg::Matrix block;
    sampler.sample_block(range, key, block);
    linalg::Matrix xi;
    fill_latent_normals(range, key, kR, xi);
    linalg::Matrix expected;
    linalg::gemm_into(xi, oracle, expected);
    linalg::reset_simd_target();
    ASSERT_EQ(block.rows(), range.count);
    ASSERT_EQ(block.cols(), locations.size());
    EXPECT_EQ(std::memcmp(block.data(), expected.data(),
                          block.rows() * block.cols() * sizeof(double)),
              0)
        << linalg::simd_target_name(target);
  }

  // Manual: value at location = sum_j sqrt(lambda_j) d_{tri, j} xi_j; a
  // negated latent row gives the exactly negated sample.
  Rng rng(17);
  const linalg::Vector xi = rng.normal_vector(kR);
  linalg::Vector negated(kR);
  for (std::size_t j = 0; j < kR; ++j) negated[j] = -xi[j];
  linalg::Matrix values;
  sampler.reconstruct(linalg::Matrix::from_rows({xi, negated}), values);
  ASSERT_EQ(values.rows(), 2u);
  for (std::size_t i = 0; i < locations.size(); ++i) {
    const std::size_t tri = kle.triangle_of(locations[i]);
    double expected = 0.0;
    for (std::size_t j = 0; j < kR; ++j)
      expected += std::sqrt(kle.eigenvalue(j)) * kle.coefficient(tri, j) *
                  xi[j];
    EXPECT_NEAR(values(0, i), expected, 1e-12);
    EXPECT_EQ(values(1, i), -values(0, i));
  }
}

TEST(CholeskySampler, StagedStagesComposeToSampleBlock) {
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const CholeskyFieldSampler sampler(kernel, test_locations());
  const SampleRange range{3, 12};
  const StreamKey key{29, 1};
  linalg::Matrix composed;
  sampler.sample_block(range, key, composed);
  linalg::Matrix xi;
  sampler.latent_block(range, key, xi);
  linalg::Matrix staged;
  sampler.reconstruct(xi, staged);
  EXPECT_EQ(staged.max_abs_diff(composed), 0.0);
}

TEST(CovarianceEstimate, RejectsTooFewSamples) {
  const kernels::GaussianKernel kernel(2.0);
  const CholeskyFieldSampler sampler(kernel, test_locations());
  EXPECT_THROW(empirical_covariance(sampler, 1, StreamKey{27, 0}), Error);
}

TEST(CovarianceEstimate, CompareRejectsShapeMismatch) {
  const kernels::GaussianKernel kernel(2.0);
  const linalg::Matrix wrong(3, 3);
  EXPECT_THROW(compare_covariance(wrong, kernel, test_locations()), Error);
}

}  // namespace
}  // namespace sckl::field
