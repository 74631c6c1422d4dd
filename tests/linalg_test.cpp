// Tests for src/linalg: matrix container, level-1 kernels, Cholesky (bit for
// bit against an unblocked fma-chain oracle, and in backward error against
// the test-only reference factor), the symmetric eigensolvers (QL, Lanczos)
// against each other, against the test-only Jacobi oracle and against
// analytically known spectra.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "jacobi_eigen.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/kernel_operator.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"
#include "reference_cholesky.h"

namespace sckl::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}

// Random symmetric positive-definite matrix A = B B^T + n*I.
Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix b = random_matrix(n, n, rng);
  Matrix a = gemm_fast(b, b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 3), Error);
}

TEST(Matrix, TransposeIdentityRowsColumns) {
  Matrix m = Matrix::from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  const Vector col = m.column(1);
  EXPECT_DOUBLE_EQ(col[1], 5.0);
  const Vector row = m.row(1);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  const Matrix id = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(Matrix, TransposeInPlaceMatchesTransposed) {
  Rng rng(2);
  // Sizes around the 32-entry tile edge, so edge tiles are partial.
  for (const std::size_t n : {1, 31, 32, 33, 70}) {
    const Matrix m = random_matrix(n, n, rng);
    Matrix t = m;
    t.transpose_in_place();
    EXPECT_EQ(t.max_abs_diff(m.transposed()), 0.0) << "n = " << n;
  }
  Matrix wide(2, 3);
  EXPECT_THROW(wide.transpose_in_place(), Error);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0}, {1.0, 2.0}}), Error);
  EXPECT_THROW(Matrix::from_rows({}), Error);
}

TEST(Matrix, SymmetryAndNorms) {
  Matrix s = Matrix::from_rows({{2.0, 1.0}, {1.0, 3.0}});
  EXPECT_TRUE(is_symmetric(s));
  s(0, 1) = 1.1;
  EXPECT_FALSE(is_symmetric(s));
  const Matrix m = Matrix::from_rows({{3.0, 4.0}});
  EXPECT_NEAR(frobenius_norm(m), 5.0, 1e-12);
}

TEST(Blas, DotNormAxpyScale) {
  Vector x = {1.0, 2.0, 2.0};
  Vector y = {3.0, 0.0, -1.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 1.0);
  EXPECT_DOUBLE_EQ(norm2(x), 3.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_THROW(dot(x, Vector{1.0}), Error);
}

TEST(Blas, GemvAgainstHandComputed) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const Vector x = {1.0, -1.0};
  const Vector y = gemv_fast(a, x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
  const Vector z = gemv_transposed_fast(a, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 9.0);
  EXPECT_DOUBLE_EQ(z[1], 12.0);
}

TEST(Blas, GemmMatchesManualProduct) {
  Rng rng(3);
  const Matrix a = random_matrix(4, 6, rng);
  const Matrix b = random_matrix(6, 5, rng);
  const Matrix c = gemm_fast(a, b);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j) {
      double expected = 0.0;
      for (std::size_t k = 0; k < 6; ++k) expected += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), expected, 1e-12);
    }
}

TEST(Cholesky, ReconstructsInput) {
  Rng rng(6);
  const Matrix a = random_spd(12, rng);
  const CholeskyFactor f = cholesky(a);
  const Matrix rebuilt = gemm_fast(f.lower, f.lower.transposed());
  EXPECT_LT(rebuilt.max_abs_diff(a) / frobenius_norm(a), 1e-12);
  // Strict upper triangle of L is zero.
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = i + 1; j < 12; ++j)
      EXPECT_EQ(f.lower(i, j), 0.0);
}

TEST(Cholesky, SolveInvertsMultiplication) {
  Rng rng(7);
  const Matrix a = random_spd(9, rng);
  const CholeskyFactor f = cholesky(a);
  const Vector x_true = rng.normal_vector(9);
  const Vector b = gemv_fast(a, x_true);
  const Vector x = f.solve(b);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix bad = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});  // eigenvalue -1
  EXPECT_THROW(cholesky(bad), Error);
  EXPECT_FALSE(try_cholesky(bad).has_value());
}

TEST(Cholesky, LogDeterminant) {
  const Matrix a = Matrix::from_rows({{4.0, 0.0}, {0.0, 9.0}});
  const CholeskyFactor f = cholesky(a);
  EXPECT_NEAR(f.log_determinant(), std::log(36.0), 1e-12);
}

TEST(Cholesky, JitterRecoversSemidefinite) {
  // Rank-1 PSD matrix: plain Cholesky fails, jitter succeeds.
  Matrix a(3, 3);
  const Vector v = {1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = v[i] * v[j];
  const JitteredCholesky jc = cholesky_with_jitter(a);
  EXPECT_GT(jc.jitter, 0.0);
  const Matrix rebuilt =
      gemm_fast(jc.factor.lower, jc.factor.lower.transposed());
  EXPECT_LT(rebuilt.max_abs_diff(a), 1e-4);
}

// The factor's one-chain contract written out unblocked: L(i, j) starts
// from K(i, j), takes c = fma(-L(i,k), L(j,k), c) for k ascending, then a
// sqrt (i = j) or a multiply by 1 / L(j, j).
Matrix fma_chain_cholesky(const Matrix& k) {
  const std::size_t n = k.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double c = k(j, j);
    for (std::size_t t = 0; t < j; ++t) c = std::fma(-l(j, t), l(j, t), c);
    l(j, j) = std::sqrt(c);
    const double inv = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double x = k(i, j);
      for (std::size_t t = 0; t < j; ++t) x = std::fma(-l(i, t), l(j, t), x);
      l(i, j) = x * inv;
    }
  }
  return l;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

// max |L L^T - K|.
double backward_error(const Matrix& l, const Matrix& k) {
  return gemm_fast(l, l.transposed()).max_abs_diff(k);
}

// Sets SCKL_THREADS, which the factor's auto thread count reads, for its
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

TEST(Cholesky, BlockedFactorMatchesFmaChainOracleBitForBit) {
  // Sizes below, at and past one 64-column panel, and several panels with a
  // partial last one; every SIMD target at 1, 2 and 4 threads.
  Rng rng(11);
  for (const std::size_t n : {1, 63, 64, 65, 200, 513}) {
    const Matrix k = random_spd(n, rng);
    const Matrix oracle = fma_chain_cholesky(k);
    for (const SimdTarget target :
         {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
      if (!simd_target_supported(target)) continue;
      for (const std::size_t threads : {1, 2, 4}) {
        const ScopedScklThreads scoped_threads(threads);
        set_simd_target(target);
        const CholeskyFactor f = cholesky(k);
        const JitteredCholesky jc = cholesky_with_jitter(k);
        reset_simd_target();
        EXPECT_TRUE(same_bits(f.lower, oracle))
            << "n = " << n << ", " << simd_target_name(target) << ", "
            << threads << " threads";
        EXPECT_EQ(jc.jitter, 0.0);
        EXPECT_TRUE(same_bits(jc.factor.lower, oracle))
            << "jitter ladder, n = " << n << ", " << simd_target_name(target)
            << ", " << threads << " threads";
      }
    }
  }
}

TEST(Cholesky, BackwardErrorMatchesReferenceFactor) {
  // The reference factor rounds twice per step, the blocked one once: the
  // entries differ at rounding level and the backward errors agree.
  Rng rng(12);
  const Matrix k = random_spd(300, rng);
  const double blocked = backward_error(cholesky(k).lower, k);
  const double reference = backward_error(reference_cholesky(k), k);
  EXPECT_LE(blocked, 2.0 * reference);
  EXPECT_LT(blocked, 1e-12 * frobenius_norm(k));
}

TEST(Cholesky, RetryAfterALaterPanelFailureMatchesAFreshFactor) {
  // K = G G^T with row 131 of G a copy of row 130, then K(131, 131) lowered
  // a little: the unjittered attempt fails at pivot 131, in the third
  // 64-column panel, after the first two panels overwrote their columns.
  // The ladder restores the lower triangle from the upper one in place, so
  // its factor must equal a fresh factor of K + jitter I bit for bit.
  Rng rng(13);
  const std::size_t n = 200;
  Matrix g = random_matrix(n, n, rng);
  std::memcpy(g.row_ptr(131), g.row_ptr(130), n * sizeof(double));
  Matrix k = gemm_fast(g, g.transposed());
  k(131, 131) -= 5e-10;
  CholeskyFailure failure;
  ASSERT_FALSE(try_cholesky(k, &failure).has_value());
  EXPECT_EQ(failure.pivot_index, 131u);
  for (const std::size_t threads : {1, 2, 4}) {
    const ScopedScklThreads scoped_threads(threads);
    const JitteredCholesky jc = cholesky_with_jitter(k);
    EXPECT_GT(jc.jitter, 0.0);
    Matrix shifted = k;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) += jc.jitter;
    const std::optional<CholeskyFactor> fresh = try_cholesky(shifted);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_TRUE(same_bits(jc.factor.lower, fresh->lower))
        << threads << " threads";
  }
}

TEST(Cholesky, FailureInALaterPanelNamesThePivot) {
  Matrix k = Matrix::identity(300);
  k(250, 250) = -1.0;
  CholeskyFailure failure;
  EXPECT_FALSE(try_cholesky(k, &failure).has_value());
  EXPECT_EQ(failure.pivot_index, 250u);
  EXPECT_EQ(failure.pivot_value, -1.0);
  try {
    cholesky(k);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotPositiveDefinite);
    EXPECT_NE(std::string(e.what()).find("pivot 250"), std::string::npos)
        << e.what();
  }
}

TEST(SymmetricEigen, DiagonalMatrix) {
  const Matrix a = Matrix::from_rows(
      {{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 2.0}});
  const SymmetricEigenResult r = symmetric_eigen(a);
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_NEAR(r.values[0], 3.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], -1.0, 1e-12);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix a = Matrix::from_rows({{2.0, 1.0}, {1.0, 2.0}});
  const SymmetricEigenResult r = symmetric_eigen(a);
  EXPECT_NEAR(r.values[0], 3.0, 1e-12);
  EXPECT_NEAR(r.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(r.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-12);
}

// Property check used by several suites: A V = V diag(values), V orthonormal.
void expect_valid_decomposition(const Matrix& a,
                                const SymmetricEigenResult& r, double tol) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < r.values.size(); ++j) {
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = r.vectors(i, j);
    const Vector av = gemv_fast(a, v);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(av[i], r.values[j] * v[i], tol) << "pair " << j;
  }
  const Matrix vtv = gemm_fast(r.vectors.transposed(), r.vectors);
  EXPECT_LT(vtv.max_abs_diff(Matrix::identity(r.values.size())), tol);
}

TEST(SymmetricEigen, RandomMatrixSatisfiesDefinition) {
  Rng rng(8);
  const std::size_t n = 30;
  Matrix a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = 0.5 * (a(i, j) + a(j, i));
      a(j, i) = a(i, j);
    }
  const SymmetricEigenResult r = symmetric_eigen(a);
  expect_valid_decomposition(a, r, 1e-9);
  // Sorted descending.
  for (std::size_t j = 1; j < n; ++j)
    EXPECT_GE(r.values[j - 1], r.values[j] - 1e-12);
  // Trace preserved.
  double trace = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += r.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(SymmetricEigen, EigenvaluesOnlyMatchesFull) {
  Rng rng(9);
  const Matrix a = random_spd(20, rng);
  const SymmetricEigenResult full = symmetric_eigen(a);
  const Vector values = symmetric_eigenvalues(a);
  ASSERT_EQ(values.size(), full.values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(values[i], full.values[i], 1e-8 * std::abs(values[0]));
}

TEST(SymmetricEigen, SizeOneMatrix) {
  const Matrix a = Matrix::from_rows({{5.0}});
  const SymmetricEigenResult r = symmetric_eigen(a);
  EXPECT_NEAR(r.values[0], 5.0, 1e-15);
  EXPECT_NEAR(std::abs(r.vectors(0, 0)), 1.0, 1e-15);
}

TEST(TridiagonalEigen, LaplacianHasKnownSpectrum) {
  // Tridiagonal (-1, 2, -1) of size n: eigenvalues 2 - 2 cos(k pi / (n+1)).
  const std::size_t n = 12;
  Vector d(n, 2.0);
  Vector e(n - 1, -1.0);
  const SymmetricEigenResult r = tridiagonal_eigen(d, e);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(static_cast<double>(n - k) * M_PI /
                             static_cast<double>(n + 1));
    EXPECT_NEAR(r.values[k], expected, 1e-10);
  }
}

TEST(TridiagonalEigen, EigenvaluesOnlyAgrees) {
  Vector d = {1.0, -2.0, 0.5, 4.0};
  Vector e = {0.3, -0.7, 1.1};
  const SymmetricEigenResult full = tridiagonal_eigen(d, e);
  const Vector values = tridiagonal_eigenvalues(d, e);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(values[i], full.values[i], 1e-12);
}

// The Lanczos convergence test reads tridiagonal_eigen_last_row in place of
// the full solve's last row, so the two must agree to the bit, including on
// the inputs that take QL's deflation branches.
TEST(TridiagonalEigen, LastRowMatchesFullSolveBitForBit) {
  const auto expect_same_bits = [](const Vector& d, const Vector& e,
                                   const std::string& what) {
    const SymmetricEigenResult full = tridiagonal_eigen(d, e);
    const SymmetricEigenResult last = tridiagonal_eigen_last_row(d, e);
    const std::size_t n = d.size();
    ASSERT_EQ(last.values.size(), n) << what;
    ASSERT_EQ(last.vectors.rows(), 1u) << what;
    ASSERT_EQ(last.vectors.cols(), n) << what;
    EXPECT_EQ(std::memcmp(last.values.data(), full.values.data(),
                          n * sizeof(double)),
              0)
        << what;
    EXPECT_EQ(std::memcmp(last.vectors.row_ptr(0), full.vectors.row_ptr(n - 1),
                          n * sizeof(double)),
              0)
        << what;
  };

  Rng rng(21);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  for (std::size_t n = 64; n <= 300; n += 59) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    Vector d(n);
    Vector e(n - 1);
    for (double& v : d) v = rng.normal();
    for (double& v : e) v = rng.normal();
    expect_same_bits(d, e, "random n = " + std::to_string(n));
  }

  const std::size_t n = 50;
  expect_same_bits(Vector(n, 2.0), Vector(n - 1, -1.0), "Laplacian");

  // Exact-zero couplings split T into blocks, as after a Lanczos restart.
  Vector d(n);
  Vector e(n - 1);
  for (double& v : d) v = rng.normal();
  for (std::size_t i = 0; i + 1 < n; ++i)
    e[i] = i % 7 == 3 ? 0.0 : rng.normal();
  expect_same_bits(d, e, "exact-zero couplings");

  // Couplings below eps * ||T|| deflate through the absolute floor; the
  // tiny diagonal tail is the numerically low-rank kernel spectrum.
  for (std::size_t i = 0; i < n; ++i)
    d[i] = i < 10 ? 1.0 + rng.uniform() : 1e-18 * rng.normal();
  for (std::size_t i = 0; i + 1 < n; ++i)
    e[i] = i < 9 ? rng.normal() : 1e-20 * rng.normal();
  expect_same_bits(d, e, "couplings below the deflation floor");
}

TEST(JacobiEigen, AgreesWithQlSolver) {
  Rng rng(10);
  const Matrix a = random_spd(16, rng);
  const SymmetricEigenResult ql = symmetric_eigen(a);
  const SymmetricEigenResult jac = jacobi_eigen(a);
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_NEAR(ql.values[i], jac.values[i], 1e-9 * ql.values[0]);
  expect_valid_decomposition(a, jac, 1e-9);
}

TEST(Lanczos, TopPairsMatchDenseSolver) {
  Rng rng(11);
  const Matrix a = random_spd(60, rng);
  const SymmetricEigenResult dense = symmetric_eigen(a);
  LanczosOptions options;
  options.num_eigenpairs = 8;
  const SymmetricEigenResult lz =
      lanczos_largest(DenseKernelOperator(a), options);
  ASSERT_EQ(lz.values.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(lz.values[i], dense.values[i], 1e-7 * dense.values[0]);
  // Ritz vectors satisfy the eigen equation.
  for (std::size_t j = 0; j < 8; ++j) {
    Vector v(60);
    for (std::size_t i = 0; i < 60; ++i) v[i] = lz.vectors(i, j);
    const Vector av = gemv_fast(a, v);
    for (std::size_t i = 0; i < 60; ++i)
      EXPECT_NEAR(av[i], lz.values[j] * v[i], 1e-6 * dense.values[0]);
  }
}

TEST(Lanczos, MatrixFreeOperatorInterface) {
  // Operator: diagonal {10, 9, ..., 1} without materializing a matrix.
  class Diagonal final : public KernelOperator {
   public:
    std::size_t dim() const override { return 10; }
    void apply(const Vector& x, Vector& y) const override {
      y.resize(10);
      for (std::size_t i = 0; i < 10; ++i)
        y[i] = static_cast<double>(10 - i) * x[i];
    }
    const char* name() const override { return "diagonal"; }
  };
  LanczosOptions options;
  options.num_eigenpairs = 3;
  const SymmetricEigenResult r = lanczos_largest(Diagonal(), options);
  EXPECT_NEAR(r.values[0], 10.0, 1e-9);
  EXPECT_NEAR(r.values[1], 9.0, 1e-9);
  EXPECT_NEAR(r.values[2], 8.0, 1e-9);
}

TEST(Lanczos, HandlesRepeatedEigenvaluesViaRestart) {
  // Identity-like operator: every direction is invariant; needs restarts.
  Matrix a = Matrix::identity(12);
  a(0, 0) = 2.0;
  LanczosOptions options;
  options.num_eigenpairs = 4;
  const SymmetricEigenResult r =
      lanczos_largest(DenseKernelOperator(a), options);
  EXPECT_NEAR(r.values[0], 2.0, 1e-9);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_NEAR(r.values[i], 1.0, 1e-9);
}

}  // namespace
}  // namespace sckl::linalg
