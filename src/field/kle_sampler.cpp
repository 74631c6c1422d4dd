#include "field/kle_sampler.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/error.h"

namespace sckl::field {

KleFieldSampler::KleFieldSampler(
    const core::KleResult& kle, std::size_t r,
    const std::vector<geometry::Point2>& locations) {
  require(!locations.empty(), "KleFieldSampler: no locations");
  require(r > 0 && r <= kle.num_eigenpairs(), "KleFieldSampler: bad r");
  std::vector<double> roots(r);
  for (std::size_t j = 0; j < r; ++j) roots[j] = std::sqrt(kle.eigenvalue(j));
  linalg::Matrix op_t(r, locations.size());
  for (std::size_t i = 0; i < locations.size(); ++i) {
    // Fallback chain for out-of-mesh gates: nearest triangle, counted so the
    // caller can distinguish boundary round-off from a mesh/placement bug.
    const std::optional<std::size_t> containing =
        kle.triangle_containing(locations[i]);
    if (!containing.has_value()) ++out_of_mesh_count_;
    const std::size_t tri =
        containing.has_value() ? *containing : kle.triangle_of(locations[i]);
    for (std::size_t j = 0; j < r; ++j)
      op_t(j, i) = kle.coefficient(tri, j) * roots[j];
  }
  set_operator(std::move(op_t), "field.reconstruct.kle",
               "sckl.field.samples.kle");
}

}  // namespace sckl::field
