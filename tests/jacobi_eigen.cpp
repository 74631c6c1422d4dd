#include "jacobi_eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace sckl::linalg {
namespace {

double off_diagonal_norm(const Matrix& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = i + 1; j < a.cols(); ++j) sum += a(i, j) * a(i, j);
  return std::sqrt(2.0 * sum);
}

}  // namespace

SymmetricEigenResult jacobi_eigen(const Matrix& input, int max_sweeps,
                                  double tolerance) {
  require(input.rows() == input.cols(), "jacobi_eigen: matrix must be square");
  require(input.rows() > 0, "jacobi_eigen: empty matrix");
  const std::size_t n = input.rows();
  Matrix a = input;
  Matrix v = Matrix::identity(n);
  const double scale = std::max(frobenius_norm(a), 1e-300);

  bool converged = false;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    if (off_diagonal_norm(a) <= tolerance * scale) {
      converged = true;
      break;
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::abs(theta) + std::sqrt(theta * theta + 1.0)), theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  ensure(converged || off_diagonal_norm(a) <= tolerance * scale * 10.0,
         "jacobi_eigen: failed to converge");

  Vector d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = a(i, i);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&d](std::size_t x, std::size_t y) { return d[x] > d[y]; });

  SymmetricEigenResult result;
  result.values.resize(n);
  result.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    result.values[j] = d[order[j]];
    for (std::size_t k = 0; k < n; ++k)
      result.vectors(k, j) = v(k, order[j]);
  }
  return result;
}

}  // namespace sckl::linalg
