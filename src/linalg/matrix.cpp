#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace sckl::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix Matrix::uninitialized(std::size_t rows, std::size_t cols) {
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(rows * cols);
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  if (data_.size() < rows * cols) data_.resize(rows * cols, 0.0);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

void Matrix::transpose_in_place() {
  require(rows_ == cols_, "Matrix::transpose_in_place: matrix must be square");
  constexpr std::size_t kTile = 32;
  const std::size_t n = rows_;
  for (std::size_t i0 = 0; i0 < n; i0 += kTile)
    for (std::size_t j0 = i0; j0 < n; j0 += kTile)
      for (std::size_t i = i0; i < std::min(n, i0 + kTile); ++i)
        for (std::size_t j = std::max(j0, i + 1); j < std::min(n, j0 + kTile);
             ++j)
          std::swap((*this)(i, j), (*this)(j, i));
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
  require(!rows.empty(), "Matrix::from_rows: no rows");
  const std::size_t cols = rows.front().size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    require(rows[r].size() == cols, "Matrix::from_rows: ragged rows");
    std::copy(rows[r].begin(), rows[r].end(), m.row_ptr(r));
  }
  return m;
}

Vector Matrix::column(std::size_t c) const {
  require(c < cols_, "Matrix::column: index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

Vector Matrix::row(std::size_t r) const {
  require(r < rows_, "Matrix::row: index out of range");
  return Vector(row_ptr(r), row_ptr(r) + cols_);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix::max_abs_diff: shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < rows_ * cols_; ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

double frobenius_norm(const Matrix& m) {
  double sum = 0.0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.row_ptr(r);
    for (std::size_t c = 0; c < m.cols(); ++c) sum += row[c] * row[c];
  }
  return std::sqrt(sum);
}

bool is_symmetric(const Matrix& m, double tol) {
  if (m.rows() != m.cols()) return false;
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = r + 1; c < m.cols(); ++c)
      if (std::abs(m(r, c) - m(c, r)) > tol) return false;
  return true;
}

}  // namespace sckl::linalg
