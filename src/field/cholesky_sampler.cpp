#include "field/cholesky_sampler.h"

#include <utility>

#include "common/error.h"
#include "core/symmetric_fill.h"
#include "linalg/cholesky.h"
#include "obs/trace.h"

namespace sckl::field {

CholeskyFieldSampler::CholeskyFieldSampler(
    const kernels::CovarianceKernel& kernel,
    const std::vector<geometry::Point2>& locations)
    : jitter_(0.0) {
  const std::size_t n = locations.size();
  require(n > 0, "CholeskyFieldSampler: no locations");
  obs::Span span("field.cholesky_setup");
  // One N_g x N_g matrix is live throughout: the Gram matrix is factored in
  // place and its L turned into U = L^T in the same storage.
  auto result = linalg::cholesky_with_jitter(core::fill_symmetric(
      n,
      [&](std::size_t i, std::size_t j) {
        return kernel(locations[i], locations[j]);
      },
      kernel, "CholeskyFieldSampler", 0));
  jitter_ = result.jitter;
  // P = Z U for U = L^T gives covariance U^T U = L L^T = K; storing U
  // directly makes reconstruction a plain row-major GEMM.
  result.factor.lower.transpose_in_place();
  set_operator(std::move(result.factor.lower), "field.reconstruct.cholesky",
               "sckl.field.samples.cholesky");
}

}  // namespace sckl::field
