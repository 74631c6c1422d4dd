// Rank-one quadratic statistical gate model (Li et al. [22]).
//
// The paper models gate delay and output slew as functions of the input
// slew and four normalized statistical parameters p = (L, W, Vt, tox),
// using rank-one quadratic functions: the nominal NLDM value is scaled by
//   factor(p) = 1 + b^T p + gamma (v^T p)^2
// where b captures first-order sensitivities (in fraction-per-sigma) and
// the rank-one quadratic term gamma (v^T p)^2 the dominant curvature. The
// factor is clamped away from zero so extreme (>5 sigma) samples cannot
// produce non-physical negative delays.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

namespace sckl::timing {

/// Index order of the four statistical parameters everywhere in the
/// timing/SSTA layers.
enum StatParameter : std::size_t {
  kParamL = 0,    // effective channel length
  kParamW = 1,    // device width
  kParamVt = 2,   // threshold voltage
  kParamTox = 3,  // oxide thickness
};
inline constexpr std::size_t kNumStatParameters = 4;

/// Human-readable parameter names ("L", "W", "Vt", "tox").
const char* stat_parameter_name(std::size_t parameter);

/// Normalized parameter values of one gate for one Monte Carlo sample.
using StatVector = std::array<double, kNumStatParameters>;

/// The rank-one quadratic sensitivity of one timing quantity.
struct RankOneQuadratic {
  StatVector linear{};     // b: fraction of nominal per sigma
  StatVector direction{};  // v: rank-one quadratic direction
  double quadratic = 0.0;  // gamma

  /// factor(p), clamped to [min_factor, +inf). Inline so the STA engine's
  /// per-sample loops can vectorize it.
  double factor(const StatVector& p, double min_factor = 0.2) const {
    double lin = 0.0;
    double proj = 0.0;
    for (std::size_t i = 0; i < kNumStatParameters; ++i) {
      lin += linear[i] * p[i];
      proj += direction[i] * p[i];
    }
    return std::max(min_factor, 1.0 + lin + quadratic * proj * proj);
  }
};

}  // namespace sckl::timing
