#include "linalg/blas.h"

#include <cmath>

#include "common/error.h"

namespace sckl::linalg {

double dot(const Vector& x, const Vector& y) {
  require(x.size() == y.size(), "dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double norm2(const Vector& x) { return std::sqrt(dot(x, x)); }

void axpy(double alpha, const Vector& x, Vector& y) {
  require(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(double alpha, Vector& x) {
  for (auto& value : x) value *= alpha;
}

}  // namespace sckl::linalg
