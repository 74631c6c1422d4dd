// Hermite polynomial-chaos surrogate of the circuit delay.
//
// Bhardwaj et al. [2] (the paper's closest prior work) propagate timing in
// a polynomial-chaos basis; here we fit a second-order Hermite PCE of the
// *worst delay* in the leading KLE random variables by regression on Monte
// Carlo samples:
//
//   delay(xi) ~ c0 + sum_d c_d H1(xi_d) + sum_d c_dd H2(xi_d)
//               + sum_{d<e} c_de xi_d xi_e      (orthonormal Hermite basis)
//
// Because the basis is orthonormal under the Gaussian measure, the model
// yields closed-form statistics: mean = c0, variance = sum of squared
// non-constant coefficients (+ residual), and — the interesting part — a
// per-KLE-mode variance decomposition: which spatial correlation modes
// actually drive timing variability (Sobol first-order indices).
#pragma once

#include <cstdint>
#include <vector>

#include "ssta/canonical.h"

namespace sckl::ssta {

/// Options for the PCE fit.
struct PceOptions {
  std::size_t dims_per_parameter = 4;  // leading KLE modes kept per parameter
  std::size_t num_samples = 1200;      // regression sample budget
  std::uint64_t seed = 99;
  bool use_latin_hypercube = true;     // stratified regression samples
};

/// Fitted second-order Hermite PCE over k selected dimensions.
class PceModel {
 public:
  PceModel(std::size_t dims, linalg::Vector coefficients,
           double residual_variance);

  std::size_t num_dimensions() const { return dims_; }
  std::size_t num_terms() const { return coefficients_.size(); }

  /// Analytic statistics of the surrogate.
  double mean() const { return coefficients_[0]; }
  double variance() const;
  double sigma() const;

  /// Fraction of the surrogate variance explained by dimension d alone
  /// (its linear + pure-quadratic terms; Sobol first-order index).
  double main_effect_fraction(std::size_t d) const;

  /// Fraction of variance in cross (interaction) terms.
  double interaction_fraction() const;

  /// Residual (unexplained) variance of the regression.
  double residual_variance() const { return residual_variance_; }

  /// Evaluates the surrogate at a point in the selected dimensions.
  double evaluate(const linalg::Vector& xi) const;

  /// Basis layout helpers: index of the linear / pure-quadratic / cross
  /// coefficient in the coefficient vector.
  std::size_t linear_index(std::size_t d) const;
  std::size_t quadratic_index(std::size_t d) const;
  std::size_t cross_index(std::size_t d, std::size_t e) const;

 private:
  std::size_t dims_;
  linalg::Vector coefficients_;
  double residual_variance_;
};

/// Result of the full PCE analysis on a circuit.
struct PceAnalysis {
  PceModel model;
  /// For each selected dimension: (parameter index, KLE mode index).
  std::vector<std::pair<std::size_t, std::size_t>> dimension_origin;
  double fit_seconds = 0.0;
};

/// Fits the worst-delay PCE for `engine` under the spatial model given by
/// the per-parameter r x N_g KLE operators (see canonical.h), each the
/// sampler's own GEMM operand, so P_j = Xi_j G_j^T is one product with no
/// transpose. The selected basis dimensions are the leading
/// `dims_per_parameter` KLE modes of each of the four parameters
/// (eigenvalue order = variance order).
PceAnalysis fit_worst_delay_pce(const timing::StaEngine& engine,
                                const ParameterOperators& operators,
                                const PceOptions& options = {});

}  // namespace sckl::ssta
