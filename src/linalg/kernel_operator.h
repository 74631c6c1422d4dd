// Abstract symmetric linear operator for the iterative eigensolvers.
//
// Lanczos only ever needs y = A x, so the solver is written against this
// interface instead of a materialized Matrix: a dense Galerkin matrix, an
// on-the-fly kernel matvec (core/matfree_operator.h), and a hierarchical
// low-rank compression (linalg/hmat.h) are all interchangeable backends of
// the same KLE solve. The dense path is just one more implementation —
// DenseKernelOperator rides the dispatched SIMD gemv kernels — so there is
// exactly one matvec definition per representation in the whole codebase.
//
// Determinism: apply() must be a pure function of x (same input bits ->
// same output bits for a given operator instance and thread count). The
// dense and exact operators are bit-reproducible across thread counts as
// well; hierarchical operators guarantee accuracy (a relative matvec error
// bound), not bit equality — see DESIGN.md §14.
#pragma once

#include <cstddef>
#include <memory>

#include "linalg/matrix.h"

namespace sckl {
class ThreadPool;
}

namespace sckl::linalg {

/// Symmetric operator of dimension dim(): y = A x.
class KernelOperator {
 public:
  virtual ~KernelOperator() = default;

  /// Operator dimension n (A is n x n).
  virtual std::size_t dim() const = 0;

  /// y = A x. `x.size() == dim()`; `y` is resized by the implementation.
  virtual void apply(const Vector& x, Vector& y) const = 0;

  /// Stable short name for telemetry ("dense", "exact", "hmat").
  virtual const char* name() const = 0;
};

/// Dense matrix as a KernelOperator: y = A x through the gemv_fast row
/// chains, the same dispatched SIMD kernels the samplers use. Each worker
/// of a pool the operator owns for its whole lifetime computes one
/// contiguous range of rows, so every thread count gives gemv_fast's bits.
/// apply() must not run concurrently on one operator (the pool runs one job
/// at a time); Lanczos never does so. Borrows the matrix — the caller keeps
/// it alive for the operator's lifetime.
class DenseKernelOperator final : public KernelOperator {
 public:
  /// `a` must be square and outlive this operator. `num_threads`: 0 = auto
  /// (SCKL_THREADS env, else hardware concurrency), 1 = serial.
  explicit DenseKernelOperator(const Matrix& a, std::size_t num_threads = 1);
  ~DenseKernelOperator() override;

  std::size_t dim() const override { return a_.rows(); }
  void apply(const Vector& x, Vector& y) const override;
  const char* name() const override { return "dense"; }

 private:
  const Matrix& a_;
  std::unique_ptr<ThreadPool> pool_;  // a 1-thread pool runs inline
};

}  // namespace sckl::linalg
