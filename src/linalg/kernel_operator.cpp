#include "linalg/kernel_operator.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"
#include "linalg/gemm.h"

namespace sckl::linalg {

DenseKernelOperator::DenseKernelOperator(const Matrix& a,
                                         std::size_t num_threads)
    : a_(a) {
  require(a.rows() == a.cols(),
          "DenseKernelOperator: matrix must be square");
  require(a.rows() > 0, "DenseKernelOperator: matrix must be non-empty");
  pool_ = std::make_unique<ThreadPool>(
      std::min(ThreadPool::resolve_num_threads(num_threads), a.rows()));
}

DenseKernelOperator::~DenseKernelOperator() = default;

void DenseKernelOperator::apply(const Vector& x, Vector& y) const {
  require(x.size() == a_.rows(), "DenseKernelOperator: dimension mismatch");
  const std::size_t n = a_.rows();
  y.resize(n);
  const std::size_t workers = pool_->num_threads();
  pool_->run([&](std::size_t w) {
    gemv_rows(a_, x, n * w / workers, n * (w + 1) / workers, y.data());
  });
}

}  // namespace sckl::linalg
