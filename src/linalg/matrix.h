// Dense row-major matrix and vector types.
//
// The library is self-contained: no BLAS/LAPACK/Eigen. Matrix is the single
// dense container used by the Galerkin assembly (n x n kernel matrix), the
// Cholesky field sampler (N_g x N_g covariance), and the KLE sampler's
// gathered reconstruction operator D_lambda^T (r x N_g). Element access is
// unchecked in release builds; `at()` provides a checked variant used by
// tests.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace sckl::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Creates a rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value);

  /// Creates a rows x cols matrix whose elements are left uninitialized:
  /// the caller writes every element before reading any. Nothing touches
  /// the storage here, so a threaded fill (core/symmetric_fill.h) first
  /// touches each page on the worker that writes it instead of zeroing all
  /// of them on the calling thread.
  static Matrix uninitialized(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Unchecked element access.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws sckl::Error when out of range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Pointer to the start of row r (contiguous, cols() elements).
  double* row_ptr(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_ptr(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  /// Raw contiguous storage (row-major).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void fill(double value);

  /// Re-shapes this matrix to rows x cols, reusing the existing allocation
  /// when it is large enough. Element contents are unspecified afterwards;
  /// callers are expected to overwrite every element. This is the scratch
  /// primitive behind the block samplers, which reuse one latent matrix
  /// across blocks instead of reallocating per block.
  void reshape(std::size_t rows, std::size_t cols);

  /// Returns the transpose.
  Matrix transposed() const;

  /// Transposes a square matrix in its own storage, by tiles.
  void transpose_in_place();

  /// Returns a rows x rows identity matrix.
  static Matrix identity(std::size_t n);

  /// Builds a matrix from nested initializer-style data; each inner vector
  /// is one row and all rows must have equal length.
  static Matrix from_rows(const std::vector<Vector>& rows);

  /// Extracts column c as a vector.
  Vector column(std::size_t c) const;

  /// Extracts row r as a vector.
  Vector row(std::size_t r) const;

  /// Maximum absolute difference to another matrix of identical shape.
  double max_abs_diff(const Matrix& other) const;

 private:
  /// std::allocator whose value-less construct() default-initializes, so
  /// resize(n) leaves new doubles unwritten (uninitialized() relies on it).
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
    // With a value, allocator_traits falls back to std::construct_at.
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
  };

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

/// Frobenius norm of a matrix.
double frobenius_norm(const Matrix& m);

/// True when |m(i,j) - m(j,i)| <= tol for all i, j (square matrices only).
bool is_symmetric(const Matrix& m, double tol = 1e-12);

}  // namespace sckl::linalg
