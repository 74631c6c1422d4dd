// Dense symmetric eigensolver: Householder tridiagonalization followed by
// the implicit-shift QL iteration (the classic EISPACK tred2/tql2 pair,
// reimplemented here). This is the reference solver for the Galerkin
// eigenproblem (eq. 13/15 of the paper) and the validator for the Lanczos
// fast path. Cost is O(n^3); at the paper's n = 1546 it runs in seconds.
#pragma once

#include "linalg/matrix.h"

namespace sckl::linalg {

/// Eigen-decomposition of a symmetric matrix: A = V diag(values) V^T.
/// Eigenvalues are sorted in descending order (the paper indexes lambda_1 as
/// the largest); column j of `vectors` is the unit eigenvector for values[j].
struct SymmetricEigenResult {
  Vector values;
  Matrix vectors;
};

/// Full eigen-decomposition of symmetric `a`. Throws when `a` is not square
/// or the QL iteration fails to converge (pathological input).
SymmetricEigenResult symmetric_eigen(const Matrix& a);

/// Eigenvalues only (skips eigenvector accumulation; ~2x faster).
Vector symmetric_eigenvalues(const Matrix& a);

/// Eigen-decomposition of the symmetric tridiagonal matrix with diagonal `d`
/// (size n) and sub/super-diagonal `e` (size n-1). Used by the Lanczos
/// solver to extract Ritz pairs. Result sorted descending.
SymmetricEigenResult tridiagonal_eigen(const Vector& d, const Vector& e);

/// The eigenvalues and only the last row of the eigenvector matrix of the
/// same tridiagonal (`vectors` is 1 x n), bit-identical to the values and
/// last row of tridiagonal_eigen(d, e) at O(n^2) instead of O(n^3): QL
/// rotates each row of the eigenvector matrix on its own and never reads
/// it, so rotating the single row e_{n-1}^T reproduces that row exactly.
/// The Lanczos convergence test needs nothing more.
SymmetricEigenResult tridiagonal_eigen_last_row(const Vector& d,
                                                const Vector& e);

/// Eigenvalues only of a symmetric tridiagonal matrix, sorted descending.
Vector tridiagonal_eigenvalues(const Vector& d, const Vector& e);

}  // namespace sckl::linalg
