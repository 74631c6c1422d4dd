// Tests for src/linalg/gemm: the batched sampling GEMM and its runtime
// SIMD dispatch. The load-bearing property is the determinism contract
// (gemm.h): every output element is ONE std::fma chain over k in strictly
// ascending order, so a naive per-element fma loop is not merely a
// tolerance reference — it predicts the exact bits of every kernel at
// every dispatch target, for every blocking/packing decision.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"

namespace sckl::linalg {
namespace {

/// Forces one dispatch target for the lifetime of the scope.
class ForcedTarget {
 public:
  explicit ForcedTarget(SimdTarget target) { set_simd_target(target); }
  ~ForcedTarget() { reset_simd_target(); }
};

/// Targets available on the running machine, scalar always included.
std::vector<SimdTarget> supported_targets() {
  std::vector<SimdTarget> targets{SimdTarget::kScalar};
  if (simd_target_supported(SimdTarget::kAvx2))
    targets.push_back(SimdTarget::kAvx2);
  if (simd_target_supported(SimdTarget::kAvx512))
    targets.push_back(SimdTarget::kAvx512);
  return targets;
}

Matrix random_matrix(std::size_t rows, std::size_t cols,
                     std::uint64_t seed) {
  const CounterRng rng(StreamKey{seed, 0});
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    rng.normal_row(i, 0, cols, m.row_ptr(i));
  return m;
}

/// The contract's reference: c(i,j) = fma(a(i,k), b(k,j), ...) folded over
/// ascending k, starting from the prior c(i,j).
Matrix reference_gemm_add(const Matrix& a, const Matrix& b, Matrix c) {
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = c(i, j);
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc = std::fma(a(i, k), b(k, j), acc);
      c(i, j) = acc;
    }
  return c;
}

void expect_bit_equal(const Matrix& got, const Matrix& want,
                      const char* label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (std::size_t i = 0; i < want.rows(); ++i)
    ASSERT_EQ(std::memcmp(got.row_ptr(i), want.row_ptr(i),
                          want.cols() * sizeof(double)),
              0)
        << label << ": row " << i << " differs";
}

struct Shape {
  std::size_t m, k, n;
};

// Ragged shapes crossing every kernel boundary: 4-row micro-tile tails,
// sub-register column tails for both the 8-wide AVX2/scalar and 32-wide
// AVX-512 panels, multiple kc panels (k > 256), and multiple jc panels
// (n > 512).
const Shape kShapes[] = {{1, 1, 1},     {3, 25, 1669}, {64, 25, 1669},
                         {7, 300, 513}, {4, 8, 32},    {5, 257, 33},
                         {2, 600, 1025}, {9, 3, 7},    {13, 31, 100}};

TEST(Gemm, MatchesFmaChainReferenceAtEveryTarget) {
  for (const SimdTarget target : supported_targets()) {
    const ForcedTarget forced(target);
    for (const Shape& s : kShapes) {
      const Matrix a = random_matrix(s.m, s.k, 11);
      const Matrix b = random_matrix(s.k, s.n, 22);
      Matrix c;
      gemm_into(a, b, c);
      expect_bit_equal(c, reference_gemm_add(a, b, Matrix(s.m, s.n)),
                       simd_target_name(target));
    }
  }
}

TEST(Gemm, AddAccumulatesIntoExistingChain) {
  for (const SimdTarget target : supported_targets()) {
    const ForcedTarget forced(target);
    const Matrix a = random_matrix(6, 40, 1);
    const Matrix b = random_matrix(40, 77, 2);
    Matrix c = random_matrix(6, 77, 3);
    const Matrix want = reference_gemm_add(a, b, c);
    gemm_add(a, b, c);
    expect_bit_equal(c, want, simd_target_name(target));
  }
}

TEST(Gemm, AllTargetsProduceIdenticalBits) {
  // The cross-target guarantee the samplers rely on: forcing the kernels
  // down to scalar (as CI does via SCKL_SIMD=scalar) must not move a bit.
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, 5);
    const Matrix b = random_matrix(s.k, s.n, 6);
    Matrix reference;
    {
      const ForcedTarget forced(SimdTarget::kScalar);
      gemm_into(a, b, reference);
    }
    for (const SimdTarget target : supported_targets()) {
      const ForcedTarget forced(target);
      Matrix c;
      gemm_into(a, b, c);
      expect_bit_equal(c, reference, simd_target_name(target));
    }
  }
}

TEST(Gemm, SubAbtOnStridedViewsContinuesTheNegatedChain) {
  // gemm_sub_abt reads A and B and updates C through row strides wider than
  // the views, as the blocked Cholesky does on blocks of one matrix: each
  // C(i, j) continues as fma(-A(i,k), B(j,k), c) over ascending k, and no
  // entry outside the C view moves.
  for (const SimdTarget target : supported_targets()) {
    const ForcedTarget forced(target);
    for (const Shape& s : kShapes) {
      const Matrix a = random_matrix(s.m, s.k + 3, 31);
      const Matrix b = random_matrix(s.n, s.k + 5, 32);
      const Matrix before = random_matrix(s.m, s.n + 7, 33);
      Matrix want = before;
      for (std::size_t i = 0; i < s.m; ++i)
        for (std::size_t j = 0; j < s.n; ++j) {
          double acc = before(i, j + 2);
          for (std::size_t k = 0; k < s.k; ++k)
            acc = std::fma(-a(i, k + 1), b(j, k + 2), acc);
          want(i, j + 2) = acc;
        }
      Matrix c = before;
      gemm_sub_abt(s.m, s.n, s.k, a.data() + 1, a.cols(), b.data() + 2,
                   b.cols(), c.data() + 2, c.cols());
      expect_bit_equal(c, want, simd_target_name(target));
    }
  }
}

TEST(Gemm, EmptyInnerDimensionYieldsZeros) {
  const Matrix a(3, 0);
  const Matrix b(0, 5);
  Matrix c;
  gemm_into(a, b, c);
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 5u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(c(i, j), 0.0);
}

TEST(Gemm, RejectsShapeMismatchAndAliasing) {
  const Matrix a = random_matrix(3, 4, 7);
  const Matrix b = random_matrix(5, 2, 8);  // inner dim 4 != 5
  Matrix c;
  EXPECT_THROW(gemm_into(a, b, c), Error);
  Matrix d = random_matrix(3, 3, 9);
  EXPECT_THROW(gemm_into(d, d, d), Error);  // c aliases an input
  Matrix e = random_matrix(3, 4, 10);       // gemm_add: wrong c shape
  Matrix wrong(2, 2);
  const Matrix f = random_matrix(4, 2, 11);
  EXPECT_THROW(gemm_add(e, f, wrong), Error);
}

TEST(Gemv, MatchesSingleRowGemmAtEveryTarget) {
  // gemv_fast's dot8 interleave is a DIFFERENT (but fixed) reduction
  // order from the gemm chain, so the guarantee is per-target determinism
  // and cross-target bit-identity, not bit-equality with gemm.
  const Matrix a = random_matrix(37, 203, 12);
  Vector x(203);
  const CounterRng rng(StreamKey{13, 0});
  rng.normal_row(0, 0, x.size(), x.data());

  Vector reference;
  {
    const ForcedTarget forced(SimdTarget::kScalar);
    reference = gemv_fast(a, x);
  }
  ASSERT_EQ(reference.size(), 37u);
  for (const SimdTarget target : supported_targets()) {
    const ForcedTarget forced(target);
    const Vector y = gemv_fast(a, x);
    ASSERT_EQ(y.size(), reference.size());
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(y[i], reference[i]) << simd_target_name(target) << " row "
                                    << i;
    // Tolerance sanity vs the plain chain (the orders differ only in
    // rounding): catches transposed/offset indexing bugs.
    for (std::size_t i = 0; i < y.size(); ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc = std::fma(a(i, k), x[k], acc);
      EXPECT_NEAR(y[i], acc, 1e-9 * std::max(1.0, std::abs(acc)));
    }
  }
}

TEST(Gemv, TransposedMatchesGemmRowExactly) {
  // gemv_transposed_fast (the H-matrix apply, the PCE normal equations)
  // keeps gemm's per-element chain: gemv_transposed_fast(op_t, x) equals
  // the one-row gemm(x_row, op_t) bit for bit, so a one-row sampler
  // reconstruct and the vector product through op_t agree exactly.
  const Matrix op_t = random_matrix(25, 1669, 14);
  Matrix x_row(1, 25);
  const CounterRng rng(StreamKey{15, 0});
  rng.normal_row(0, 0, 25, x_row.row_ptr(0));
  Vector x(x_row.row_ptr(0), x_row.row_ptr(0) + 25);

  for (const SimdTarget target : supported_targets()) {
    const ForcedTarget forced(target);
    Matrix block;
    gemm_into(x_row, op_t, block);
    const Vector y = gemv_transposed_fast(op_t, x);
    ASSERT_EQ(y.size(), 1669u);
    for (std::size_t j = 0; j < y.size(); ++j)
      ASSERT_EQ(y[j], block(0, j)) << simd_target_name(target) << " col "
                                   << j;
  }
}

TEST(Dispatch, TargetNamesAndForcingRoundTrip) {
  EXPECT_STREQ(simd_target_name(SimdTarget::kScalar), "scalar");
  EXPECT_STREQ(simd_target_name(SimdTarget::kAvx2), "avx2");
  EXPECT_STREQ(simd_target_name(SimdTarget::kAvx512), "avx512");
  EXPECT_TRUE(simd_target_supported(SimdTarget::kScalar));

  const SimdTarget ambient = active_simd_target();
  for (const SimdTarget target : supported_targets()) {
    set_simd_target(target);
    EXPECT_EQ(active_simd_target(), target);
  }
  reset_simd_target();
  EXPECT_EQ(active_simd_target(), ambient);

  if (!simd_target_supported(SimdTarget::kAvx512)) {
    EXPECT_THROW(set_simd_target(SimdTarget::kAvx512), Error);
  }
}

TEST(Dispatch, DetectedTargetIsSupported) {
  EXPECT_TRUE(simd_target_supported(detected_simd_target()));
  EXPECT_TRUE(simd_target_supported(active_simd_target()));
}

}  // namespace
}  // namespace sckl::linalg
