// Karhunen-Loeve Expansion solver — the paper's core algorithm.
//
// Pipeline (Sec. 3.2/4): assemble the scaled Galerkin matrix B from the mesh
// and kernel, solve the symmetric eigenproblem for the m largest pairs,
// un-scale the eigenvectors (d = Phi^{-1/2} u) into piecewise-constant
// eigenfunction coefficients, and expose:
//   - eigenvalues lambda_j (descending; tiny negatives from quadrature noise
//     are clamped to zero and reported),
//   - eigenfunction evaluation f_j(x) (constant per triangle, located via a
//     spatial grid),
//   - truncated kernel reconstruction K_hat(x,y) = sum lambda_j f_j(x) f_j(y)
//     (Fig. 3b).
// The reconstruction operator D_lambda = D_r sqrt(Lambda_r) of eq. 28 is
// gathered at the gate locations by field::KleFieldSampler, the one
// Algorithm 2 sampler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/galerkin.h"
#include "geometry/spatial_grid.h"
#include "linalg/hmat.h"
#include "linalg/lanczos.h"

namespace sckl::core {

/// How the Galerkin operator is realized for the eigensolve.
enum class OperatorMode {
  /// Assemble the dense n x n matrix (the default; exact, bit-stable, and
  /// fine up to ~10^4 triangles where 8 n^2 bytes stops fitting).
  kAssembled,
  /// Never materialize the matrix: Lanczos runs on the hierarchical
  /// ACA-compressed operator, then on the exact on-the-fly matvec, and
  /// finally (only when n <= kDenseFallbackMaxN) QL on the assembled
  /// matrix. Eigenvalue-accurate to the ACA tolerance but not bit-stable
  /// across configurations — see DESIGN.md §14. The centroid quadrature
  /// rule is implied.
  kMatrixFree,
};

/// Largest n for which a kMatrixFree solve may still fall back to QL on
/// the assembled matrix (8 n^2 bytes). Above it, a solve whose Lanczos
/// stages all fail throws instead.
inline constexpr std::size_t kDenseFallbackMaxN = 20'000;

/// Options for solve_kle().
struct KleOptions {
  std::size_t num_eigenpairs = 200;  // m: how many pairs to compute
  QuadratureRule quadrature = QuadratureRule::kCentroid1;
  std::uint64_t lanczos_seed = 42;
  /// Lanczos subspace cap (0 = the solver's default min(n, 2m + 160)). At
  /// million-triangle n the Krylov basis (8n bytes per vector) dominates
  /// memory; m plus a small margin is usually enough for the fast-decaying
  /// spectra of smooth kernels.
  std::size_t lanczos_max_subspace = 0;
  OperatorMode operator_mode = OperatorMode::kAssembled;
  /// H-matrix build of the kMatrixFree path; its num_threads also drives
  /// the exact matvec.
  linalg::HmatOptions matfree;
};

/// Telemetry of one solve_kle() call: which eigensolve stage produced the
/// result, which stages failed before it and why, and the
/// negative-eigenvalue clamp accounting of the returned spectrum. Pass the
/// optional out-parameter to record it; solving is unaffected.
struct KleSolveInfo {
  /// Stage that produced λ, d: "dense" (Lanczos on the assembled matrix),
  /// "hmat", "exact" (Lanczos on the matrix-free operators) or "ql"
  /// (Householder-QL on the assembled matrix).
  std::string operator_used;
  bool fallback = false;        // Lanczos on "dense"/"exact" failed
  std::string fallback_reason;  // what() of that failure
  linalg::LanczosInfo lanczos;  // latest Lanczos attempt, if any
  std::size_t clamped_eigenvalues = 0;  // trailing negatives clamped to 0
  double clamped_magnitude = 0.0;       // total magnitude removed by clamping

  // The "hmat" stage (operator_mode == kMatrixFree only).
  std::string hmat_failure_reason;  // what() of its failure; empty if none
  linalg::HmatStats hmat;           // compression stats of a completed build
};

/// Result of the numerical KLE of one kernel on one mesh. It owns the mesh
/// it was solved on, so it stays valid wherever it is stored.
class KleResult {
 public:
  KleResult(mesh::TriMesh mesh, linalg::Vector eigenvalues,
            linalg::Matrix coefficients);

  /// Number of computed eigenpairs m.
  std::size_t num_eigenpairs() const { return eigenvalues_.size(); }

  /// Number of basis functions n (mesh triangles).
  std::size_t basis_size() const { return coefficients_.rows(); }

  /// j-th largest eigenvalue (clamped at 0).
  double eigenvalue(std::size_t j) const;
  const linalg::Vector& eigenvalues() const { return eigenvalues_; }

  /// Coefficient d_{i,j} of eigenfunction j on triangle i. Eigenfunctions
  /// are Phi-orthonormal: sum_i d_{i,j}^2 a_i = 1.
  double coefficient(std::size_t i, std::size_t j) const;
  const linalg::Matrix& coefficients() const { return coefficients_; }

  /// Eigenfunction value f_j(x); x is located in the mesh via the index.
  double eigenfunction_value(std::size_t j, geometry::Point2 x) const;

  /// Eigenfunction value on a known triangle (no lookup).
  double eigenfunction_on_triangle(std::size_t j, std::size_t tri) const {
    return coefficient(tri, j);
  }

  /// Triangle containing x (nearest for boundary/degenerate points).
  std::size_t triangle_of(geometry::Point2 x) const;

  /// Triangle strictly containing x, or nullopt when x lies outside every
  /// mesh triangle (e.g. a gate legalized marginally off the die). Callers
  /// that resolve such points to the nearest triangle should count them —
  /// see field::KleFieldSampler::out_of_mesh_count().
  std::optional<std::size_t> triangle_containing(geometry::Point2 x) const;

  /// Number of eigenvalues that came in negative (quadrature noise) and
  /// were clamped to zero by the constructor, and the total magnitude
  /// removed. Large clamped mass signals an invalid or mis-assembled kernel.
  std::size_t clamped_count() const { return clamped_count_; }
  double clamped_magnitude() const { return clamped_magnitude_; }

  /// Truncated reconstruction K_hat(x, y) from the first r eigenpairs.
  double reconstruct_kernel(geometry::Point2 x, geometry::Point2 y,
                            std::size_t r) const;

  /// Fraction of total basis variance captured by the first r eigenvalues.
  /// Total variance of the projected process equals the matrix trace, which
  /// for the centroid rule is sum_i K(c_i,c_i) a_i = area(D) for a
  /// normalized kernel.
  double captured_variance_fraction(std::size_t r, double total) const;

  const mesh::TriMesh& mesh() const { return mesh_; }

  /// Heap bytes held by the result (the capacities of the mesh, spectrum
  /// and locator containers) plus the object itself: what a cache should
  /// charge for keeping it.
  std::size_t resident_bytes() const;

 private:
  mesh::TriMesh mesh_;
  linalg::Vector eigenvalues_;
  linalg::Matrix coefficients_;  // n x m, column j = d_j
  geometry::SpatialGrid locator_;
  std::size_t clamped_count_ = 0;
  double clamped_magnitude_ = 0.0;
};

/// Computes the KLE of `kernel` on `mesh`. The result keeps the mesh: a
/// caller that built it only for the solve moves it in.
///
/// The eigensolve is one ordered list of stages, tried in turn:
///   kAssembled:  Lanczos on the assembled matrix ("dense", only when
///                3m < n), then "ql".
///   kMatrixFree: Lanczos on the H-matrix ("hmat"), then on the exact
///                matvec ("exact"), then "ql" (only when
///                n <= kDenseFallbackMaxN).
/// A stage that fails with kNoConvergence or kOverloaded (over its memory
/// budget) is recorded in `info` and the next stage runs — callers lose
/// speed, not the answer. Any other error, and the failure of the last
/// stage, propagates. A Galerkin matrix containing NaN/Inf is rejected
/// (sckl::Error, code kNonFinite) instead of letting NaN reach the spectrum.
/// The Galerkin assembly and the "dense" matvec run on auto threads
/// (SCKL_THREADS env, else hardware concurrency); B, λ and d have the same
/// bits at every thread count.
KleResult solve_kle(mesh::TriMesh mesh,
                    const kernels::CovarianceKernel& kernel,
                    const KleOptions& options = {},
                    KleSolveInfo* info = nullptr);

}  // namespace sckl::core
