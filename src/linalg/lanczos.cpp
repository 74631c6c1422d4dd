#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "common/rng.h"
#include "linalg/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"

namespace sckl::linalg {
namespace {

// Removes the components of w along every row of basis (classical
// Gram-Schmidt, applied twice by the caller for stability).
void orthogonalize_against(const std::vector<Vector>& basis, Vector& w) {
  for (const Vector& v : basis) {
    const double coeff = dot(v, w);
    if (coeff != 0.0) axpy(-coeff, v, w);
  }
}

Vector random_unit_vector(std::size_t n, Rng& rng,
                          const std::vector<Vector>& basis) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    Vector v = rng.normal_vector(n);
    orthogonalize_against(basis, v);
    orthogonalize_against(basis, v);
    const double norm = norm2(v);
    if (norm > 1e-12 * std::sqrt(static_cast<double>(n))) {
      scale(1.0 / norm, v);
      return v;
    }
  }
  require(false, "lanczos: could not generate a vector outside the subspace");
  return {};
}

}  // namespace

SymmetricEigenResult lanczos_largest(const KernelOperator& op,
                                     const LanczosOptions& options,
                                     LanczosInfo* info) {
  const std::size_t n = op.dim();
  require(n > 0, "lanczos: dimension must be positive");
  const std::size_t k = std::min(options.num_eigenpairs, n);
  require(k > 0, "lanczos: need at least one eigenpair");
  obs::Span span("linalg.lanczos");
  std::size_t max_m = options.max_subspace == 0
                          ? std::min(n, 2 * k + 80)
                          : std::min(options.max_subspace, n);
  max_m = std::max(max_m, k);

  // Deterministic fault: pretend the spectrum is too hard and the iteration
  // never converges, so the caller's fallback (solve_kle's next stage) is
  // exercised on demand.
  const bool forced_failure =
      robust::fault_injected(robust::FaultSite::kLanczosConvergence);

  Rng rng(options.seed);
  std::vector<Vector> basis;  // Lanczos vectors v_0 .. v_{m-1}
  basis.reserve(max_m);
  Vector alpha;  // T diagonal
  Vector beta;   // T subdiagonal (beta[j] couples v_j and v_{j+1})

  basis.push_back(random_unit_vector(n, rng, basis));
  Vector w(n);

  std::size_t m = 0;
  std::size_t restarts = 0;
  bool converged = false;
  double last_beta = 0.0;  // residual scale of the latest Ritz extraction
  while (basis.size() <= max_m) {
    const Vector& v = basis.back();
    op.apply(v, w);
    const double a = dot(v, w);
    alpha.push_back(a);
    axpy(-a, v, w);
    if (basis.size() >= 2) {
      // beta term plus full reorthogonalization (twice) to defeat the loss
      // of orthogonality that plain Lanczos suffers for clustered spectra.
      orthogonalize_against(basis, w);
      orthogonalize_against(basis, w);
    } else {
      orthogonalize_against(basis, w);
    }
    double b = norm2(w);
    m = basis.size();
    last_beta = b;

    // Convergence test: residual of Ritz pair i is |beta_m * s_{m,i}|. It
    // reads only the last row of the eigenvectors, so the full tridiagonal
    // solve waits until the loop ends.
    if (m >= k) {
      const SymmetricEigenResult last = tridiagonal_eigen_last_row(alpha, beta);
      converged = !forced_failure;
      for (std::size_t i = 0; converged && i < k; ++i) {
        const double resid = std::abs(b * last.vectors(0, i));
        const double threshold =
            options.tolerance * std::max(std::abs(last.values[i]), 1e-30);
        if (resid > threshold) converged = false;
      }
      if (converged) break;
    }
    if (basis.size() == max_m) break;

    if (b <= 1e-14) {
      // Invariant subspace found; restart with a fresh orthogonal direction.
      ++restarts;
      basis.push_back(random_unit_vector(n, rng, basis));
      beta.push_back(0.0);
      continue;
    }
    scale(1.0 / b, w);
    basis.push_back(w);
    beta.push_back(b);
  }

  ensure(m >= k, "lanczos: subspace smaller than requested eigenpair count");
  {
    // Counted before the convergence verdict so failed solves (which throw
    // below and hand on to solve_kle's next stage) still show up in the
    // totals.
    static obs::Counter& solves = obs::counter("sckl.linalg.lanczos.solves");
    static obs::Counter& iters = obs::counter("sckl.linalg.lanczos.iterations");
    static obs::Counter& matvecs = obs::counter("sckl.linalg.lanczos.matvecs");
    static obs::Counter& restart_count =
        obs::counter("sckl.linalg.lanczos.restarts");
    solves.add(1);
    iters.add(m);
    matvecs.add(alpha.size());  // exactly one apply() per basis growth step
    restart_count.add(restarts);
  }
  // Final Ritz extraction, converged or at the subspace limit.
  const SymmetricEigenResult tri = tridiagonal_eigen(alpha, beta);

  // Relative Ritz residuals |beta_m s_{m,i}| / max(|lambda_i|, eps) of the
  // requested pairs, from the final extraction.
  double max_residual = 0.0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double resid = std::abs(last_beta * tri.vectors(m - 1, i)) /
                         std::max(std::abs(tri.values[i]), 1e-30);
    max_residual = std::max(max_residual, resid);
    if (resid > options.best_effort_tolerance) ++rejected;
  }
  if (info != nullptr) {
    info->converged = converged;
    info->best_effort = !converged && rejected == 0 && !forced_failure;
    info->fault_injected = forced_failure;
    info->iterations = m;
    info->max_residual = max_residual;
    info->rejected_pairs = rejected;
  }
  if (forced_failure)
    throw Error("lanczos: convergence failure injected at fault site '" +
                    std::string(robust::to_string(
                        robust::FaultSite::kLanczosConvergence)) +
                    "'",
                ErrorCode::kNoConvergence);
  if (!converged && rejected > 0) {
    // Accept best effort only if residuals are reasonable, otherwise fail
    // loudly: here the loose bound failed for `rejected` of the k pairs.
    char message[192];
    std::snprintf(message, sizeof(message),
                  "lanczos: %zu of %zu Ritz pairs unconverged after %zu "
                  "iterations (max relative residual %.3g exceeds best-effort "
                  "tolerance %.3g)",
                  rejected, k, m, max_residual,
                  options.best_effort_tolerance);
    throw Error(message, ErrorCode::kNoConvergence);
  }

  // Ritz vectors: y_i = sum_j basis[j] * s(j, i).
  SymmetricEigenResult result;
  result.values.assign(tri.values.begin(), tri.values.begin() + k);
  result.vectors = Matrix(n, k);
  for (std::size_t i = 0; i < k; ++i) {
    Vector y(n, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      const double s = tri.vectors(j, i);
      if (s != 0.0) axpy(s, basis[j], y);
    }
    const double norm = norm2(y);
    ensure(norm > 1e-12, "lanczos: degenerate Ritz vector");
    for (std::size_t row = 0; row < n; ++row)
      result.vectors(row, i) = y[row] / norm;
  }
  return result;
}

}  // namespace sckl::linalg
