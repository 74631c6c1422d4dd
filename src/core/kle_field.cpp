#include "core/kle_field.h"

#include <algorithm>

#include "common/error.h"
#include "linalg/gemm.h"

namespace sckl::core {

KleField::KleField(const KleResult& kle, std::size_t r,
                   const std::vector<geometry::Point2>& locations)
    : r_(r) {
  require(!locations.empty(), "KleField: no locations");
  const linalg::Matrix d_lambda = kle.reconstruction_operator(r);  // n x r
  triangle_index_.reserve(locations.size());
  gate_rows_ = linalg::Matrix(locations.size(), r_);
  for (std::size_t i = 0; i < locations.size(); ++i) {
    // Fallback chain for out-of-mesh gates: nearest triangle, counted so the
    // caller can distinguish boundary round-off from a mesh/placement bug.
    const std::optional<std::size_t> containing =
        kle.triangle_containing(locations[i]);
    if (!containing.has_value()) ++out_of_mesh_count_;
    const std::size_t tri =
        containing.has_value() ? *containing : kle.triangle_of(locations[i]);
    triangle_index_.push_back(tri);
    std::copy(d_lambda.row_ptr(tri), d_lambda.row_ptr(tri) + r_,
              gate_rows_.row_ptr(i));
  }
  gate_rows_t_ = gate_rows_.transposed();
}

std::size_t KleField::matrix_bytes() const {
  return (gate_rows_.rows() * gate_rows_.cols() +
          gate_rows_t_.rows() * gate_rows_t_.cols()) *
         sizeof(double);
}

std::size_t KleField::triangle_of_location(std::size_t i) const {
  require(i < triangle_index_.size(),
          "KleField::triangle_of_location: out of range");
  return triangle_index_[i];
}

void KleField::reconstruct(const linalg::Vector& xi,
                           linalg::Vector& values) const {
  require(xi.size() == r_, "KleField::reconstruct: xi has wrong dimension");
  // G^T-transposed product over the GEMM-ready layout: bit-identical to the
  // corresponding row of reconstruct_block (same k-ascending fma chains).
  values = linalg::gemv_transposed_fast(gate_rows_t_, xi);
}

linalg::Matrix KleField::reconstruct_block(
    const linalg::Matrix& xi_block) const {
  require(xi_block.cols() == r_,
          "KleField::reconstruct_block: xi has wrong dimension");
  return linalg::gemm_fast(xi_block, gate_rows_t_);
}

}  // namespace sckl::core
