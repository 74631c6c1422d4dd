// Cholesky factorization.
//
// Algorithm 1 of the paper factors the N_g x N_g gate-location covariance
// matrix once and multiplies every Monte Carlo sample block by the upper
// factor U (K = U^T U). We store the lower factor L (K = L L^T); U = L^T, so
// the Cholesky sampler installs L^T as its reconstruction operator and each
// sample block is one dispatched GEMM (linalg/gemm.h).
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

/// Factors a symmetric positive-definite matrix. Throws sckl::Error (code
/// kNotPositiveDefinite) naming the failing pivot index and value when the
/// matrix is not positive definite.
CholeskyFactor cholesky(const Matrix& k);

/// Like cholesky() but returns nullopt instead of throwing; used by the PSD
/// validity checker where "not PSD" is an expected answer. When `failure` is
/// non-null it receives the failing pivot diagnostics on a nullopt return.
std::optional<CholeskyFactor> try_cholesky(const Matrix& k,
                                           CholeskyFailure* failure = nullptr);

/// Factors K + jitter*I, growing jitter geometrically from `initial_jitter`
/// until the factorization succeeds (at most `max_attempts` tries). Returns
/// the factor and the jitter used. Covariance matrices built from very smooth
/// kernels (the Gaussian kernel of Fig. 1a) are numerically semi-definite;
/// the paper's Algorithm 1 needs exactly this regularization in practice.
struct JitteredCholesky {
  CholeskyFactor factor;
  double jitter;
};
JitteredCholesky cholesky_with_jitter(Matrix k, double initial_jitter = 1e-10,
                                      int max_attempts = 12);

}  // namespace sckl::linalg
