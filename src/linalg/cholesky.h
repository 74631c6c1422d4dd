// Cholesky factorization.
//
// Algorithm 1 of the paper factors the N_g x N_g gate-location covariance
// matrix once and multiplies every Monte Carlo sample block by the upper
// factor U (K = U^T U). We store the lower factor L (K = L L^T); U = L^T, so
// the Cholesky sampler turns L into U in the same storage and installs it as
// its reconstruction operator, and each sample block is one dispatched GEMM
// (linalg/gemm.h).
//
// Design: a left-looking factor by panels of 64 columns, in place in the
// input's lower triangle. Each panel is first updated by every column left
// of it through the gemm kernels (gemm_sub_abt): its 64 x 64 diagonal block
// in a scratch block, the rows below in place, split over a ThreadPool on
// auto threads (SCKL_THREADS, else the hardware count). The panel is then
// finished with short fma chains under target("fma"). A matrix of one panel
// or less spawns no thread, and a worker's scratch is the gemm's packed
// panel, never O(N^2). The strict upper triangle is never written during
// the factorization, which lets the jitter ladder retry without a copy: it
// saves the diagonal, and before each retry rewrites the overwritten lower
// columns from the upper triangle and adds the next jitter.
//
// Bit contract (gemm.h's one-chain contract): every L(i, j) is one chain,
//
//   c = K(i, j)             (plus the jitter when i = j)
//   for k = 0 .. j-1:  c = fma(-L(i,k), L(j,k), c)
//   L(i, j) = sqrt(c)  if i = j,  else  c * (1 / L(j, j)),
//
// so L has the same bits at every thread count, every panel width and every
// SIMD target. The accuracy oracle is an unblocked dot-product factor that
// rounds twice per step (tests/reference_cholesky.h): the two agree in
// backward error, and their entries differ at the level of the matrix's
// conditioning.
//
// Failure diagnostics: a non-SPD input is reported with the index and value
// of the failing pivot (the eliminated diagonal entry that came out
// non-positive), which distinguishes "semi-definite by a rounding hair"
// (tiny negative pivot deep in the elimination — jitter will fix it) from
// "structurally indefinite input" (large negative pivot early on). The
// robust::FaultSite::kCholeskyPivot injection site makes both try_cholesky
// and the jitter ladder fail on demand so fallback chains are testable.
#pragma once

#include <cstddef>
#include <optional>

#include "linalg/matrix.h"

namespace sckl::linalg {

/// Result of a Cholesky factorization: lower-triangular L with K = L L^T.
struct CholeskyFactor {
  Matrix lower;

  /// Solves K x = b via forward/back substitution.
  Vector solve(const Vector& b) const;

  /// log(det(K)) = 2 * sum(log(L_ii)); useful for Gaussian likelihoods.
  double log_determinant() const;
};

/// Diagnostics of a failed factorization: which pivot broke, and its value
/// after elimination (NaN when the failure was fault-injected).
struct CholeskyFailure {
  std::size_t pivot_index = 0;
  double pivot_value = 0.0;
};

/// Factors a symmetric positive-definite matrix (reading its lower
/// triangle) into a copy. Throws sckl::Error (code kNotPositiveDefinite)
/// naming the failing pivot index and value when the matrix is not positive
/// definite.
CholeskyFactor cholesky(const Matrix& k);

/// Like cholesky() but returns nullopt instead of throwing; used by the PSD
/// validity checker where "not PSD" is an expected answer. When `failure` is
/// non-null it receives the failing pivot diagnostics on a nullopt return.
std::optional<CholeskyFactor> try_cholesky(const Matrix& k,
                                           CholeskyFailure* failure = nullptr);

/// Factors K + jitter*I, growing jitter geometrically from `initial_jitter`
/// until the factorization succeeds (at most `max_attempts` tries; the first
/// uses no jitter). k must be symmetric: a retry rebuilds the lower triangle
/// from the upper one. Returns the factor, in k's own storage, and the
/// jitter used; pass k by move to keep one N x N matrix live. Covariance
/// matrices built from very smooth kernels (the Gaussian kernel of Fig. 1a)
/// are numerically semi-definite; the paper's Algorithm 1 needs exactly
/// this regularization in practice.
struct JitteredCholesky {
  CholeskyFactor factor;
  double jitter;
};
JitteredCholesky cholesky_with_jitter(Matrix k, double initial_jitter = 1e-10,
                                      int max_attempts = 12);

}  // namespace sckl::linalg
