#include "field/kle_sampler.h"

#include "common/error.h"

namespace sckl::field {

KleFieldSampler::KleFieldSampler(const core::KleResult& kle, std::size_t r,
                                 const std::vector<geometry::Point2>& locations)
    : field_(kle, r, locations) {
  set_operator(field_.location_operator().transposed(),
               "field.reconstruct.kle", "sckl.field.samples.kle");
}

std::size_t KleFieldSampler::matrix_bytes() const {
  const linalg::Matrix& op_t = operator_transposed();
  return field_.matrix_bytes() + op_t.rows() * op_t.cols() * sizeof(double);
}

}  // namespace sckl::field
