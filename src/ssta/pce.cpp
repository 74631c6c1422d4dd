#include "ssta/pce.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "obs/stopwatch.h"
#include "field/field_sampler.h"
#include "field/lhs.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"

namespace sckl::ssta {
namespace {

constexpr double kSqrt2 = 1.41421356237309514547;

// Basis size for k dims: 1 constant + k linear + k pure quadratic +
// k(k-1)/2 cross terms.
std::size_t basis_size(std::size_t k) { return 1 + 2 * k + k * (k - 1) / 2; }

// Fills one design-matrix row from the selected-dimension values.
void fill_basis_row(const double* xi, std::size_t k, double* row) {
  std::size_t at = 0;
  row[at++] = 1.0;
  for (std::size_t d = 0; d < k; ++d) row[at++] = xi[d];
  for (std::size_t d = 0; d < k; ++d)
    row[at++] = (xi[d] * xi[d] - 1.0) / kSqrt2;  // orthonormal H2
  for (std::size_t d = 0; d < k; ++d)
    for (std::size_t e = d + 1; e < k; ++e) row[at++] = xi[d] * xi[e];
}

}  // namespace

PceModel::PceModel(std::size_t dims, linalg::Vector coefficients,
                   double residual_variance)
    : dims_(dims),
      coefficients_(std::move(coefficients)),
      residual_variance_(std::max(residual_variance, 0.0)) {
  require(coefficients_.size() == basis_size(dims_),
          "PceModel: coefficient count does not match dimension count");
}

std::size_t PceModel::linear_index(std::size_t d) const {
  require(d < dims_, "PceModel::linear_index: out of range");
  return 1 + d;
}

std::size_t PceModel::quadratic_index(std::size_t d) const {
  require(d < dims_, "PceModel::quadratic_index: out of range");
  return 1 + dims_ + d;
}

std::size_t PceModel::cross_index(std::size_t d, std::size_t e) const {
  require(d < e && e < dims_, "PceModel::cross_index: need d < e < dims");
  // Offset of pair (d, e) in the row-major upper-triangle enumeration.
  const std::size_t before =
      d * dims_ - d * (d + 1) / 2;  // pairs with first index < d
  return 1 + 2 * dims_ + before + (e - d - 1);
}

double PceModel::variance() const {
  double sum = residual_variance_;
  for (std::size_t b = 1; b < coefficients_.size(); ++b)
    sum += coefficients_[b] * coefficients_[b];
  return sum;
}

double PceModel::sigma() const { return std::sqrt(variance()); }

double PceModel::main_effect_fraction(std::size_t d) const {
  const double lin = coefficients_[linear_index(d)];
  const double quad = coefficients_[quadratic_index(d)];
  return (lin * lin + quad * quad) / std::max(variance(), 1e-300);
}

double PceModel::interaction_fraction() const {
  double sum = 0.0;
  for (std::size_t d = 0; d < dims_; ++d)
    for (std::size_t e = d + 1; e < dims_; ++e) {
      const double c = coefficients_[cross_index(d, e)];
      sum += c * c;
    }
  return sum / std::max(variance(), 1e-300);
}

double PceModel::evaluate(const linalg::Vector& xi) const {
  require(xi.size() == dims_, "PceModel::evaluate: dimension mismatch");
  std::vector<double> row(coefficients_.size());
  fill_basis_row(xi.data(), dims_, row.data());
  double sum = 0.0;
  for (std::size_t b = 0; b < coefficients_.size(); ++b)
    sum += row[b] * coefficients_[b];
  return sum;
}

PceAnalysis fit_worst_delay_pce(const timing::StaEngine& engine,
                                const ParameterOperators& operators,
                                const PceOptions& options) {
  const std::size_t num_physical = engine.netlist().num_physical_gates();
  std::size_t total_dims = 0;
  for (const auto* op : operators) {
    require(op != nullptr, "fit_worst_delay_pce: missing operator");
    require(op->cols() == num_physical,
            "fit_worst_delay_pce: operator gate count mismatch");
    total_dims += op->rows();
  }

  // Selected dimensions: the leading modes of each parameter (the KLE's
  // eigenvalue ordering makes these the highest-variance spatial modes).
  std::vector<std::pair<std::size_t, std::size_t>> origin;
  std::vector<std::size_t> global_index;  // column in the full xi matrix
  std::size_t offset = 0;
  for (std::size_t j = 0; j < timing::kNumStatParameters; ++j) {
    const std::size_t keep =
        std::min(options.dims_per_parameter, operators[j]->rows());
    for (std::size_t m = 0; m < keep; ++m) {
      origin.emplace_back(j, m);
      global_index.push_back(offset + m);
    }
    offset += operators[j]->rows();
  }
  const std::size_t k = origin.size();
  const std::size_t b = basis_size(k);
  require(options.num_samples >= 2 * b,
          "fit_worst_delay_pce: need at least 2x basis-size samples");

  obs::Stopwatch timer;
  const StreamKey key{options.seed, 0};
  const std::size_t n = options.num_samples;

  // Sample the full latent space once.
  linalg::Matrix xi;
  if (options.use_latin_hypercube) {
    field::latin_hypercube_normal(n, total_dims, key, xi);
  } else {
    field::fill_latent_normals(field::SampleRange{0, n}, key, total_dims, xi);
  }

  // Reconstruct per-parameter gate values: P_j = Xi_j G_j^T, one blocked
  // GEMM against the operator in its latent x locations layout.
  std::array<linalg::Matrix, timing::kNumStatParameters> gate_values;
  offset = 0;
  for (std::size_t j = 0; j < timing::kNumStatParameters; ++j) {
    const std::size_t r = operators[j]->rows();
    linalg::Matrix xi_j(n, r);
    for (std::size_t i = 0; i < n; ++i)
      std::copy(xi.row_ptr(i) + offset, xi.row_ptr(i) + offset + r,
                xi_j.row_ptr(i));
    gate_values[j] = linalg::gemm_fast(xi_j, *operators[j]);
    offset += r;
  }

  // Time all n samples as one block, then build the regression system.
  timing::StaBlockResult timed;
  engine.run_block({gate_values[0].data(), gate_values[1].data(),
                    gate_values[2].data(), gate_values[3].data()},
                   num_physical, n, timed);
  const linalg::Vector& response = timed.worst_delay;
  linalg::Matrix design(n, b);
  std::vector<double> selected(k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < k; ++d)
      selected[d] = xi(i, global_index[d]);
    fill_basis_row(selected.data(), k, design.row_ptr(i));
  }

  // Normal equations with jitter (the Hermite design is well conditioned
  // for n >> b, but stratified samples can introduce mild collinearity).
  linalg::Matrix gram = linalg::gemm_fast(design.transposed(), design);
  linalg::Vector rhs = linalg::gemv_transposed_fast(design, response);
  const auto factor = linalg::cholesky_with_jitter(std::move(gram));
  const linalg::Vector coefficients = factor.factor.solve(rhs);

  // Residual variance (unbiased by the fitted dof).
  double rss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double fit = 0.0;
    const double* row = design.row_ptr(i);
    for (std::size_t t = 0; t < b; ++t) fit += row[t] * coefficients[t];
    const double diff = response[i] - fit;
    rss += diff * diff;
  }
  const double residual = rss / static_cast<double>(n - b);

  PceAnalysis analysis{PceModel(k, coefficients, residual),
                       std::move(origin), timer.seconds()};
  return analysis;
}

}  // namespace sckl::ssta
