#include "reference_cholesky.h"

#include <cmath>
#include <string>

#include "common/error.h"

namespace sckl::linalg {

Matrix reference_cholesky(const Matrix& k, double jitter) {
  require(k.rows() == k.cols(), "reference_cholesky: matrix must be square");
  const std::size_t n = k.rows();
  Matrix a = k;
  for (std::size_t i = 0; i < n; ++i) a(i, i) += jitter;
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    const double* jrow = a.row_ptr(j);
    for (std::size_t k = 0; k < j; ++k) diag -= jrow[k] * jrow[k];
    if (!(diag > 0.0))
      throw Error("reference_cholesky: pivot " + std::to_string(j) +
                      " is not positive",
                  ErrorCode::kNotPositiveDefinite);
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      const double* irow = a.row_ptr(i);
      for (std::size_t k = 0; k < j; ++k) sum -= irow[k] * jrow[k];
      a(i, j) = sum * inv;
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) a(i, j) = 0.0;
  return a;
}

}  // namespace sckl::linalg
