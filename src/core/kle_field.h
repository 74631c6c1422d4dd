// Reduced-dimension field reconstruction (eq. 28 / Algorithm 2).
//
// KleField freezes a KLE result at a chosen truncation r and precomputes,
// for a fixed set of query locations (the placed gates), the rows of
// D_lambda = D_r sqrt(Lambda_r) of their containing triangles. One sample is
// then: draw xi ~ N(0, I_r), compute values = G xi where G is the
// (num_locations x r) gathered operator — O(N_g r) per sample instead of the
// O(N_g^2) of the dense Cholesky sampler.
#pragma once

#include <vector>

#include "core/kle_solver.h"

namespace sckl::core {

/// Frozen, location-resolved KLE reconstruction operator.
class KleField {
 public:
  /// Builds the per-location operator. `locations` are die coordinates
  /// (gate placements); each is resolved to its containing triangle once.
  /// Locations outside every mesh triangle (gates legalized marginally off
  /// the die, float round-off at the boundary) resolve to the nearest
  /// triangle instead of failing; they are counted in out_of_mesh_count()
  /// so callers can decide whether the placement/mesh mismatch is benign.
  KleField(const KleResult& kle, std::size_t r,
           const std::vector<geometry::Point2>& locations);

  std::size_t reduced_dimension() const { return r_; }
  std::size_t num_locations() const { return gate_rows_.rows(); }

  /// Number of locations that fell outside every mesh triangle and were
  /// resolved to the nearest one.
  std::size_t out_of_mesh_count() const { return out_of_mesh_count_; }

  /// Triangle index backing location i.
  std::size_t triangle_of_location(std::size_t i) const;

  /// values[i] = field value at location i for the reduced sample xi.
  void reconstruct(const linalg::Vector& xi, linalg::Vector& values) const;

  /// Batch form: each row of `xi_block` (N x r) is one reduced sample; the
  /// result is N x num_locations. This is the P_j = Xi_j D_lambda^T product
  /// of Algorithm 2, organized row-major.
  linalg::Matrix reconstruct_block(const linalg::Matrix& xi_block) const;

  /// The gathered operator G (num_locations x r).
  const linalg::Matrix& location_operator() const { return gate_rows_; }

  /// Bytes of the matrices this field holds: G and its GEMM-ready
  /// transpose.
  std::size_t matrix_bytes() const;

 private:
  std::size_t r_;
  linalg::Matrix gate_rows_;  // num_locations x r (gathered rows of D_lambda)
  linalg::Matrix gate_rows_t_;  // r x num_locations, the GEMM-ready layout
  std::vector<std::size_t> triangle_index_;
  std::size_t out_of_mesh_count_ = 0;
};

}  // namespace sckl::core
