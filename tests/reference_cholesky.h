// Unblocked dot-product Cholesky — a test-only accuracy oracle.
//
// One column at a time, each entry K(i, j) minus a running sum of products
// that rounds twice per step. It shares no code with linalg::cholesky (no
// gemm kernels, no fma, no panels), so the tests can hold the production
// factor's backward error against it.
#pragma once

#include "linalg/matrix.h"

namespace sckl::linalg {

/// Lower factor L of K + jitter * I (so L L^T = K + jitter * I), with a zero
/// strict upper triangle. Throws sckl::Error (kNotPositiveDefinite) on a
/// non-positive pivot.
Matrix reference_cholesky(const Matrix& k, double jitter = 0.0);

}  // namespace sckl::linalg
