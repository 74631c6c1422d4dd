// Cyclic Jacobi eigensolver for symmetric matrices — a test-only oracle.
//
// Slower than the tridiagonal QL path (O(n^3) per sweep) but famously
// accurate and independent in failure modes, so linalg_test uses it to
// cross-validate symmetric_eigen(). Intended for small n.
#pragma once

#include "linalg/symmetric_eigen.h"

namespace sckl::linalg {

/// Full eigen-decomposition by cyclic Jacobi rotations; result sorted
/// descending. Throws if the off-diagonal norm fails to fall below tolerance
/// within `max_sweeps`.
SymmetricEigenResult jacobi_eigen(const Matrix& a, int max_sweeps = 60,
                                  double tolerance = 1e-14);

}  // namespace sckl::linalg
