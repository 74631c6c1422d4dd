// Algorithm 2 of the paper: reduced-dimension KLE field sampling.
//
//   Xi_j    <- RandNormal(N, r)                (r ~ 25 instead of N_g)
//   P_jDelta <- D_lambda Xi_j                  (eq. 28)
//   Row(i, P_j) <- Row(IndexOfContainingTriangle(g_i), P_jDelta)
//
// The triangle lookup is folded into construction: each location's row of
// D_lambda = D_r sqrt(Lambda_r) is gathered once into the r x N_g operator,
// so a sample block costs O(N N_g r) instead of the O(N N_g^2) of the
// dense Cholesky sampler.
#pragma once

#include <vector>

#include "core/kle_solver.h"
#include "field/field_sampler.h"

namespace sckl::field {

/// Reduced-dimension sampler backed by a truncated KLE. Reconstruction is
/// the LinearFieldSampler GEMM against D_lambda^T gathered at the gate
/// locations: operator_transposed()(j, i) = d(tri_i, j) sqrt(lambda_j),
/// where tri_i is the triangle backing location i. That r x N_g matrix is
/// also what canonical SSTA and PCE read (ssta::ParameterOperators).
class KleFieldSampler final : public LinearFieldSampler {
 public:
  /// Freezes `kle` at truncation r for the given locations, whether it was
  /// solved in place or fetched from the artifact store. The KleResult may
  /// be destroyed afterwards; all needed state is copied. Each location is
  /// resolved to its containing triangle once. Locations outside every mesh
  /// triangle (gates legalized marginally off the die, float round-off at
  /// the boundary) resolve to the nearest triangle instead of failing; they
  /// are counted in out_of_mesh_count() so callers can decide whether the
  /// placement/mesh mismatch is benign.
  KleFieldSampler(const core::KleResult& kle, std::size_t r,
                  const std::vector<geometry::Point2>& locations);

  /// Locations that were outside every mesh triangle and got resolved to
  /// the nearest one.
  std::size_t out_of_mesh_count() const { return out_of_mesh_count_; }

 private:
  std::size_t out_of_mesh_count_ = 0;
};

}  // namespace sckl::field
