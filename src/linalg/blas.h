// Level-1 vector kernels (dot, norm, axpy, scale) for the Lanczos
// iteration and the H-matrix. Matrix products live in linalg/gemm.h, whose
// dispatched kernels are the only GEMM/GEMV in the library.
#pragma once

#include <cstddef>

#include "linalg/matrix.h"

namespace sckl::linalg {

/// Dot product of two equal-length vectors.
double dot(const Vector& x, const Vector& y);

/// Euclidean norm.
double norm2(const Vector& x);

/// y += alpha * x.
void axpy(double alpha, const Vector& x, Vector& y);

/// x *= alpha.
void scale(double alpha, Vector& x);

}  // namespace sckl::linalg
