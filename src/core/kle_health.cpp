#include "core/kle_health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "linalg/gemm.h"

namespace sckl::core {
namespace {

using robust::HealthReport;
using robust::Severity;

std::string format(const char* fmt, double a, double b) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b);
  return buffer;
}

void check_finiteness(const KleResult& kle, HealthReport& report) {
  for (std::size_t j = 0; j < kle.num_eigenpairs(); ++j)
    if (!std::isfinite(kle.eigenvalue(j))) {
      report.add(Severity::kFatal, "finite_eigenvalues",
                 "eigenvalue " + std::to_string(j) + " is not finite");
      return;
    }
  const linalg::Matrix& d = kle.coefficients();
  for (std::size_t i = 0; i < d.rows(); ++i) {
    const double* row = d.row_ptr(i);
    for (std::size_t j = 0; j < d.cols(); ++j)
      if (!std::isfinite(row[j])) {
        report.add(Severity::kFatal, "finite_coefficients",
                   "coefficient (" + std::to_string(i) + ", " +
                       std::to_string(j) + ") is not finite");
        return;
      }
  }
  report.add(Severity::kInfo, "finite", "all eigenvalues and coefficients finite");
}

void check_ordering(const KleResult& kle, HealthReport& report) {
  for (std::size_t j = 1; j < kle.num_eigenpairs(); ++j)
    if (kle.eigenvalue(j) > kle.eigenvalue(j - 1) * (1.0 + 1e-12) + 1e-300) {
      report.add(Severity::kError, "eigenvalue_order",
                 "eigenvalues are not in descending order at index " +
                     std::to_string(j));
      return;
    }
  report.add(Severity::kInfo, "eigenvalue_order", "eigenvalues descend");
}

void check_orthonormality(const KleResult& kle, const KleHealthOptions& options,
                          HealthReport& report) {
  // Gram matrix of the eigenfunctions in the Phi inner product:
  // G_jk = sum_i d_ij d_ik a_i, expected = I.
  const linalg::Matrix& d = kle.coefficients();
  const std::size_t m = d.cols();
  double drift = 0.0;
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t k = j; k < m; ++k) {
      double g = 0.0;
      for (std::size_t i = 0; i < d.rows(); ++i)
        g += d(i, j) * d(i, k) * kle.mesh().area(i);
      drift = std::max(drift, std::abs(g - (j == k ? 1.0 : 0.0)));
    }
  report.metric("orthonormality_drift", drift);
  if (drift > options.orthonormality_tolerance)
    report.add(Severity::kError, "orthonormality",
               format("Phi-orthonormality drift %.3g exceeds tolerance %.3g",
                      drift, options.orthonormality_tolerance));
  else
    report.add(Severity::kInfo, "orthonormality",
               format("Phi-orthonormality drift %.3g within tolerance %.3g",
                      drift, options.orthonormality_tolerance));
}

void check_clamping(const KleResult& kle, const KleHealthOptions& options,
                    HealthReport& report) {
  report.metric("clamped_eigenvalues",
                static_cast<double>(kle.clamped_count()));
  report.metric("clamped_magnitude", kle.clamped_magnitude());
  if (kle.clamped_count() == 0) {
    report.add(Severity::kInfo, "clamping", "no eigenvalues clamped");
    return;
  }
  const double scale = std::max(kle.eigenvalue(0), 1e-300);
  const double fraction = kle.clamped_magnitude() / scale;
  if (fraction > options.clamped_fraction_tolerance)
    report.add(Severity::kError, "clamping",
               format("clamped negative mass is %.3g of lambda_1 "
                      "(tolerance %.3g) — kernel may not be PSD",
                      fraction, options.clamped_fraction_tolerance));
  else
    report.add(
        Severity::kInfo, "clamping",
        std::to_string(kle.clamped_count()) +
            " trailing eigenvalues clamped (quadrature noise, negligible mass)");
}

}  // namespace

robust::HealthReport check_kle_health(const KleResult& kle,
                                      const KleHealthOptions& options) {
  HealthReport report;
  require(kle.num_eigenpairs() > 0, "check_kle_health: empty KLE");
  check_finiteness(kle, report);
  if (report.worst() == Severity::kFatal) return report;  // rest would be NaN
  check_ordering(kle, report);
  check_orthonormality(kle, options, report);
  check_clamping(kle, options, report);
  return report;
}

robust::HealthReport check_kle_health(const KleResult& kle,
                                      const linalg::Matrix& galerkin,
                                      const KleHealthOptions& options) {
  HealthReport report = check_kle_health(kle, options);
  if (report.worst() == Severity::kFatal) return report;

  const std::size_t n = kle.basis_size();
  if (galerkin.rows() != n || galerkin.cols() != n) {
    report.add(Severity::kFatal, "eigen_residual",
               "Galerkin matrix is " + std::to_string(galerkin.rows()) + "x" +
                   std::to_string(galerkin.cols()) + " but the KLE basis has " +
                   std::to_string(n) + " triangles — artifact/mesh mismatch");
    return report;
  }

  // Residual of the scaled problem: B u = lambda u with u = Phi^{1/2} d.
  const double scale = std::max(kle.eigenvalue(0), 1e-300);
  linalg::Vector u(n);
  double max_residual = 0.0;
  std::size_t worst_pair = 0;
  for (std::size_t j = 0; j < kle.num_eigenpairs(); ++j) {
    for (std::size_t i = 0; i < n; ++i)
      u[i] = kle.coefficient(i, j) * std::sqrt(kle.mesh().area(i));
    linalg::Vector bu = linalg::gemv_fast(galerkin, u);
    const double lambda = kle.eigenvalue(j);
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = bu[i] - lambda * u[i];
      norm_sq += r * r;
    }
    const double residual = std::sqrt(norm_sq) / scale;
    if (residual > max_residual) {
      max_residual = residual;
      worst_pair = j;
    }
  }
  report.metric("max_eigen_residual", max_residual);
  if (max_residual > options.residual_tolerance)
    report.add(Severity::kError, "eigen_residual",
               format("relative eigen-residual %.3g exceeds tolerance %.3g",
                      max_residual, options.residual_tolerance) +
                   " (worst pair " + std::to_string(worst_pair) + ")");
  else
    report.add(Severity::kInfo, "eigen_residual",
               format("max relative eigen-residual %.3g within tolerance %.3g",
                      max_residual, options.residual_tolerance));
  return report;
}

}  // namespace sckl::core
