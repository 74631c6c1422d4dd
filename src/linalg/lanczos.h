// Lanczos iteration with full reorthogonalization for the top-r eigenpairs
// of a symmetric operator.
//
// The paper computes only the first 200 eigenpairs of the n = 1546 Galerkin
// matrix (MATLAB eigs, 11.2 s); this is our equivalent fast path. The
// operator is a KernelOperator (y = A x), so the dense matrix and the
// matrix-free kernels (K(c_i, c_k) sqrt(a_i a_k) evaluated on the fly or
// ACA-compressed) run the identical iteration.
//
// Failure semantics: when the subspace limit is reached before the requested
// pairs converge, the final Ritz extraction is accepted as best effort only
// if every requested pair's residual is within `best_effort_tolerance`;
// otherwise lanczos_largest throws sckl::Error with code kNoConvergence
// (solve_kle catches that code and hands on to its next eigensolve stage).
// The optional LanczosInfo out-parameter records what happened either way.
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/kernel_operator.h"
#include "linalg/symmetric_eigen.h"

namespace sckl::linalg {

/// Options controlling the Lanczos iteration.
struct LanczosOptions {
  /// Number of eigenpairs wanted (largest algebraic).
  std::size_t num_eigenpairs = 25;
  /// Maximum Krylov subspace dimension; 0 means min(n, 2k + 80).
  std::size_t max_subspace = 0;
  /// Relative residual tolerance per Ritz pair.
  double tolerance = 1e-10;
  /// Looser relative residual bound applied at the subspace limit: a
  /// non-converged extraction is accepted as best effort only when every
  /// requested pair is below this, and rejected (kNoConvergence) otherwise.
  double best_effort_tolerance = 1e-6;
  /// Seed for the random start vector.
  std::uint64_t seed = 42;
};

/// Telemetry of one lanczos_largest call. Filled through the out-parameter
/// before any failure is thrown, so callers that catch the error still see
/// the iteration counts and residuals of the failed attempt.
struct LanczosInfo {
  bool converged = false;          // tolerance met within the subspace limit
  bool best_effort = false;        // limit hit; pairs passed the loose bound
  bool fault_injected = false;     // robust::FaultSite::kLanczosConvergence
  std::size_t iterations = 0;      // final Krylov subspace dimension m
  double max_residual = 0.0;       // worst relative residual among the k pairs
  std::size_t rejected_pairs = 0;  // pairs over best_effort_tolerance
};

/// Computes the largest eigenpairs of the symmetric operator `op`.
/// Eigenvalues descend; column j of `vectors` holds the Ritz vector for
/// values[j]. Throws sckl::Error (code kNoConvergence) when the subspace
/// limit is reached and the best-effort residual check fails. A dense
/// matrix runs through DenseKernelOperator (the dispatched SIMD gemv).
SymmetricEigenResult lanczos_largest(const KernelOperator& op,
                                     const LanczosOptions& options = {},
                                     LanczosInfo* info = nullptr);

}  // namespace sckl::linalg
