// Algorithm 2 of the paper: reduced-dimension KLE field sampling.
//
//   Xi_j    <- RandNormal(N, r)                (r ~ 25 instead of N_g)
//   P_jDelta <- D_lambda Xi_j                  (eq. 28)
//   Row(i, P_j) <- Row(IndexOfContainingTriangle(g_i), P_jDelta)
//
// The triangle lookup is folded into construction (KleField gathers the
// relevant rows of D_lambda once), so a sample block costs O(N N_g r).
#pragma once

#include <vector>

#include "core/kle_field.h"
#include "field/field_sampler.h"

namespace sckl::field {

/// Reduced-dimension sampler backed by a truncated KLE. Reconstruction is
/// the LinearFieldSampler GEMM against D_lambda^T gathered at the gate
/// locations (r x N_g).
class KleFieldSampler final : public LinearFieldSampler {
 public:
  /// Freezes `kle` at truncation r for the given locations, whether it was
  /// solved in place or fetched from the artifact store. The KleResult may
  /// be destroyed afterwards; all needed state is copied.
  KleFieldSampler(const core::KleResult& kle, std::size_t r,
                  const std::vector<geometry::Point2>& locations);

  const core::KleField& field() const { return field_; }

  /// Bytes of every matrix this sampler holds (the field's G and G^T plus
  /// the installed reconstruction operator) — what a cache should charge.
  std::size_t matrix_bytes() const;

  /// Locations that were outside every mesh triangle and got resolved to
  /// the nearest one (see core::KleField::out_of_mesh_count()).
  std::size_t out_of_mesh_count() const { return field_.out_of_mesh_count(); }

 private:
  core::KleField field_;
};

}  // namespace sckl::field
