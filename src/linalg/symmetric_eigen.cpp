#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace sckl::linalg {
namespace {

// Householder reduction of symmetric `a` (n x n) to tridiagonal form with
// diagonal `d` and subdiagonal `e` (e[0] unused). When accumulate is true,
// `a` is overwritten with the orthogonal transform Q such that
// A = Q T Q^T; otherwise its contents become scratch.
void tridiagonalize(Matrix& a, Vector& d, Vector& e, bool accumulate) {
  const std::size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 1) {
    d[0] = a(0, 0);
    a(0, 0) = 1.0;
    return;
  }

  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          if (accumulate) a(j, i) = a(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (std::size_t k = 0; k <= j; ++k)
            a(j, k) -= f * e[k] + g * a(i, k);
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }

  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (accumulate) {
      if (d[i] != 0.0) {
        for (std::size_t j = 0; j < i; ++j) {
          double g = 0.0;
          for (std::size_t k = 0; k < i; ++k) g += a(i, k) * a(k, j);
          for (std::size_t k = 0; k < i; ++k) a(k, j) -= g * a(k, i);
        }
      }
      d[i] = a(i, i);
      a(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        a(j, i) = 0.0;
        a(i, j) = 0.0;
      }
    } else {
      d[i] = a(i, i);
    }
  }
}

// Implicit-shift QL iteration on a symmetric tridiagonal matrix (d, e with
// e[0] unused on input). When z is non-null, its columns are rotated along
// so that on exit column j of z is the eigenvector for d[j].
void ql_implicit(Vector& d, Vector& e, Matrix* z) {
  const std::size_t n = d.size();
  if (n == 0) return;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  // Absolute deflation floor: covariance-kernel matrices are numerically
  // low rank, so whole trailing blocks of d are at machine-noise scale and
  // the classic relative test |e| <= eps (|d_m| + |d_m+1|) never fires.
  // Off-diagonals below eps * ||T|| are genuine zeros at working precision.
  double norm_scale = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    norm_scale = std::max(norm_scale, std::abs(d[i]) + std::abs(e[i]));
  const double absolute_floor =
      std::numeric_limits<double>::epsilon() * norm_scale;

  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m = 0;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <=
            std::max(std::numeric_limits<double>::epsilon() * dd,
                     absolute_floor))
          break;
      }
      if (m != l) {
        ensure(++iterations <= 50, "symmetric_eigen: QL failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow_break = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow_break = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (z != nullptr) {
            for (std::size_t k = 0; k < z->rows(); ++k) {
              f = (*z)(k, i + 1);
              (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
              (*z)(k, i) = c * (*z)(k, i) - s * f;
            }
          }
        }
        if (underflow_break) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

// Reorders eigenpairs into descending eigenvalue order.
SymmetricEigenResult sort_descending(Vector d, Matrix z) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&d](std::size_t a, std::size_t b) { return d[a] > d[b]; });
  SymmetricEigenResult result;
  result.values.resize(n);
  const bool with_vectors = !z.empty();
  if (with_vectors) result.vectors = Matrix(z.rows(), n);
  for (std::size_t j = 0; j < n; ++j) {
    result.values[j] = d[order[j]];
    if (with_vectors)
      for (std::size_t k = 0; k < z.rows(); ++k)
        result.vectors(k, j) = z(k, order[j]);
  }
  return result;
}

Vector sorted_descending(Vector d) {
  std::sort(d.begin(), d.end(), std::greater<>());
  return d;
}

// Checks a tridiagonal (diagonal d, off-diagonal e of size n-1) and copies
// it into ql_implicit's layout: e[0] unused, e[i] couples i-1 and i.
void ql_input(const Vector& d, const Vector& e, Vector& dd, Vector& ee) {
  const std::size_t n = d.size();
  require(n > 0, "tridiagonal_eigen: empty input");
  require(e.size() + 1 == n || (n == 1 && e.empty()),
          "tridiagonal_eigen: off-diagonal must have size n-1");
  dd = d;
  ee.assign(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) ee[i] = e[i - 1];
}

}  // namespace

SymmetricEigenResult symmetric_eigen(const Matrix& a) {
  require(a.rows() == a.cols(), "symmetric_eigen: matrix must be square");
  require(a.rows() > 0, "symmetric_eigen: empty matrix");
  Matrix z = a;
  Vector d;
  Vector e;
  tridiagonalize(z, d, e, /*accumulate=*/true);
  ql_implicit(d, e, &z);
  return sort_descending(std::move(d), std::move(z));
}

Vector symmetric_eigenvalues(const Matrix& a) {
  require(a.rows() == a.cols(), "symmetric_eigenvalues: matrix must be square");
  require(a.rows() > 0, "symmetric_eigenvalues: empty matrix");
  Matrix scratch = a;
  Vector d;
  Vector e;
  tridiagonalize(scratch, d, e, /*accumulate=*/false);
  ql_implicit(d, e, nullptr);
  return sorted_descending(std::move(d));
}

SymmetricEigenResult tridiagonal_eigen(const Vector& d, const Vector& e) {
  Vector dd;
  Vector ee;
  ql_input(d, e, dd, ee);
  Matrix z = Matrix::identity(dd.size());
  ql_implicit(dd, ee, &z);
  return sort_descending(std::move(dd), std::move(z));
}

SymmetricEigenResult tridiagonal_eigen_last_row(const Vector& d,
                                                const Vector& e) {
  Vector dd;
  Vector ee;
  ql_input(d, e, dd, ee);
  Matrix z(1, dd.size());
  z(0, dd.size() - 1) = 1.0;
  ql_implicit(dd, ee, &z);
  return sort_descending(std::move(dd), std::move(z));
}

Vector tridiagonal_eigenvalues(const Vector& d, const Vector& e) {
  Vector dd;
  Vector ee;
  ql_input(d, e, dd, ee);
  ql_implicit(dd, ee, nullptr);
  return sorted_descending(std::move(dd));
}

}  // namespace sckl::linalg
