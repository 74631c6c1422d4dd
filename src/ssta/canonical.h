// Canonical first-order block-based SSTA on the KLE basis.
//
// The paper notes that the uncorrelated RVs produced by the KLE "simplify
// the computations in a typical SSTA algorithm" (Sec. 2.1, citing the
// canonical-form engines of Visweswariah [6] and Chang-Sapatnekar [5]).
// This module is that application, built as an extension on top of the
// Monte Carlo reproduction:
//
//   - every timing quantity is a canonical form
//       T = mean + sum_i s_i xi_i + s_ind * eta,
//     where the xi_i are the KLE random variables of the four statistical
//     parameters (4r of them) and eta is an independent N(0,1) absorbing
//     whatever variance the shared basis cannot represent;
//   - gate delays are linearized at the nominal corner: the rank-one
//     quadratic factor (1 + b^T p + gamma (v^T p)^2) contributes
//     d0 * b_j * G_param^T(i, gate) to the sensitivity on xi_i, with G^T
//     the KLE sampler's r x N_g reconstruction operator (one column per
//     gate), plus the exact mean/variance of the quadratic term folded
//     into the mean and the independent part;
//   - slews are propagated as canonical forms too: a slow upstream gate
//     produces a slow edge that further slows downstream gates. The NLDM
//     derivatives d(delay)/d(slew_in) and d(slew_out)/d(slew_in) are taken
//     by finite differences at the nominal point and chain the upstream
//     slew deviation into downstream delay sensitivities (ignoring this
//     channel systematically underestimates sigma by ~10%);
//   - addition is exact; maximum uses Clark's moment formulas with the
//     correlation implied by the shared sensitivities, sensitivities
//     blended by tightness probability, and the independent part chosen to
//     match Clark's total variance.
//
// One propagation pass yields the full circuit-delay distribution — the
// bench compares its mean/sigma and runtime against the Monte Carlo engine.
#pragma once

#include <array>
#include <vector>

#include "linalg/matrix.h"
#include "timing/sta.h"

namespace sckl::ssta {

/// First-order canonical timing quantity over a shared normal basis.
class CanonicalForm {
 public:
  CanonicalForm() = default;

  /// A deterministic value (no variation).
  static CanonicalForm constant(double value, std::size_t basis_size);

  double mean() const { return mean_; }
  double variance() const;
  double sigma() const;
  const linalg::Vector& sensitivities() const { return sensitivity_; }
  double independent() const { return independent_; }
  std::size_t basis_size() const { return sensitivity_.size(); }

  /// Adds a deterministic offset (wire delay).
  void shift(double delta) { mean_ += delta; }

  /// Returns this form scaled by k (mean, sensitivities, independent).
  CanonicalForm scaled_by(double k) const;

  /// Adds another canonical form: sensitivities add, independent parts add
  /// in quadrature (they are independent by construction).
  CanonicalForm& operator+=(const CanonicalForm& other);

  /// Covariance/correlation implied by the shared basis.
  static double covariance(const CanonicalForm& x, const CanonicalForm& y);

  /// Clark's maximum of two canonical forms (variance-matched).
  static CanonicalForm maximum(const CanonicalForm& x,
                               const CanonicalForm& y);

  /// Direct construction (used by the engine and tests).
  CanonicalForm(double mean, linalg::Vector sensitivity, double independent);

 private:
  double mean_ = 0.0;
  linalg::Vector sensitivity_;
  double independent_ = 0.0;
};

/// Standard normal CDF / PDF (exposed for tests).
double normal_cdf(double x);
double normal_pdf(double x);

/// Per-parameter location operators: for each of the 4 statistical
/// parameters, the (r x num_physical_gates) matrix G^T whose column g maps
/// the KLE RVs to that parameter's value at gate g — the reconstruction
/// operator of its sampler (field::KleFieldSampler::operator_transposed()).
using ParameterOperators = std::array<const linalg::Matrix*,
                                      timing::kNumStatParameters>;

/// Result of the canonical propagation.
struct CanonicalSstaResult {
  CanonicalForm worst_delay;                  // circuit-delay distribution
  std::vector<CanonicalForm> endpoint;        // per endpoint
  double seconds = 0.0;                       // propagation wall time
};

/// Runs the canonical SSTA. The engine's nominal trace provides the
/// linearization point (nominal arc delays and slews); `operators` supply
/// the spatial-correlation structure. All four operators must have
/// `engine`'s physical gate count as column count; their row counts (r) may
/// differ per parameter.
CanonicalSstaResult run_canonical_ssta(const timing::StaEngine& engine,
                                       const ParameterOperators& operators);

}  // namespace sckl::ssta
