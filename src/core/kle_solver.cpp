#include "core/kle_solver.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "core/matfree_operator.h"
#include "linalg/kernel_operator.h"
#include "linalg/lanczos.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sckl::core {

KleResult::KleResult(mesh::TriMesh mesh, linalg::Vector eigenvalues,
                     linalg::Matrix coefficients)
    : mesh_(std::move(mesh)),
      eigenvalues_(std::move(eigenvalues)),
      coefficients_(std::move(coefficients)),
      locator_(mesh_.to_triangles(), mesh_.bounds()) {
  require(coefficients_.rows() == mesh_.num_triangles(),
          "KleResult: coefficient rows must match mesh size");
  require(coefficients_.cols() == eigenvalues_.size(),
          "KleResult: coefficient columns must match eigenvalue count");
  // Quadrature noise can push trailing eigenvalues of a PSD kernel slightly
  // negative; clamp so sqrt(lambda) in eq. 28 stays real, and account for
  // what was removed so health validation can flag excessive clamping.
  for (auto& value : eigenvalues_) {
    if (value < 0.0) {
      ++clamped_count_;
      clamped_magnitude_ -= value;
      value = 0.0;
    }
  }
}

double KleResult::eigenvalue(std::size_t j) const {
  require(j < eigenvalues_.size(), "KleResult::eigenvalue: out of range");
  return eigenvalues_[j];
}

double KleResult::coefficient(std::size_t i, std::size_t j) const {
  require(i < coefficients_.rows() && j < coefficients_.cols(),
          "KleResult::coefficient: out of range");
  return coefficients_(i, j);
}

std::size_t KleResult::triangle_of(geometry::Point2 x) const {
  return locator_.find_containing_or_nearest(x);
}

std::optional<std::size_t> KleResult::triangle_containing(
    geometry::Point2 x) const {
  return locator_.find_containing(x);
}

double KleResult::eigenfunction_value(std::size_t j,
                                      geometry::Point2 x) const {
  return coefficient(triangle_of(x), j);
}

double KleResult::reconstruct_kernel(geometry::Point2 x, geometry::Point2 y,
                                     std::size_t r) const {
  require(r <= eigenvalues_.size(),
          "KleResult::reconstruct_kernel: r exceeds computed pairs");
  const std::size_t ti = triangle_of(x);
  const std::size_t tk = triangle_of(y);
  double sum = 0.0;
  for (std::size_t j = 0; j < r; ++j)
    sum += eigenvalues_[j] * coefficients_(ti, j) * coefficients_(tk, j);
  return sum;
}

std::size_t KleResult::resident_bytes() const {
  return sizeof(*this) +
         mesh_.vertices().capacity() * sizeof(geometry::Point2) +
         mesh_.triangle_indices().capacity() *
             sizeof(mesh::TriMesh::TriangleIndices) +
         mesh_.areas().capacity() * sizeof(double) +
         mesh_.centroids().capacity() * sizeof(geometry::Point2) +
         eigenvalues_.capacity() * sizeof(double) +
         coefficients_.rows() * coefficients_.cols() * sizeof(double) +
         locator_.resident_bytes();
}

double KleResult::captured_variance_fraction(std::size_t r,
                                             double total) const {
  require(r <= eigenvalues_.size(),
          "KleResult::captured_variance_fraction: bad r");
  require(total > 0.0, "KleResult::captured_variance_fraction: bad total");
  double sum = 0.0;
  for (std::size_t j = 0; j < r; ++j) sum += eigenvalues_[j];
  return sum / total;
}

namespace {

// Threads of the assembly and the dense matvec: 0 resolves to SCKL_THREADS,
// else the hardware concurrency. Any count gives the same bits.
constexpr std::size_t kAutoThreads = 0;

linalg::SymmetricEigenResult dense_eigensolve(const linalg::Matrix& b) {
  obs::Span dense_span("linalg.dense_eigen");
  obs::counter("sckl.linalg.dense_eigen.solves").add(1);
  return linalg::symmetric_eigen(b);
}

linalg::LanczosOptions lanczos_options_for(const KleOptions& options,
                                           std::size_t n, std::size_t m) {
  linalg::LanczosOptions lanczos;
  lanczos.num_eigenpairs = m;
  lanczos.seed = options.lanczos_seed;
  // Clustered trailing eigenvalues of smooth kernels converge slowly;
  // give the subspace generous room unless the caller caps it.
  const std::size_t cap = options.lanczos_max_subspace;
  lanczos.max_subspace =
      cap == 0 ? std::min(n, 2 * m + 160) : std::max(std::min(cap, n), m);
  lanczos.tolerance = 1e-9;
  return lanczos;
}

// One eigensolve stage: its telemetry name and how it produces the leading
// eigenpairs. Lanczos stages fill the LanczosInfo they are handed.
struct Stage {
  std::string_view name;
  std::function<linalg::SymmetricEigenResult(linalg::LanczosInfo*)> run;
};

// Records a stage failure that hands on to the next stage. The "hmat"
// stage hands on to the exact operator, which reaches the same spectrum,
// so only the other stages count as a fallback (the one the KLE health
// report warns about).
void record_failure(const Stage& stage, const Error& e, KleSolveInfo* info) {
  const bool hmat = stage.name == "hmat";
  obs::counter(hmat ? "sckl.core.kle_matfree_fallbacks"
                    : "sckl.core.kle_fallbacks")
      .add(1);
  if (info == nullptr) return;
  if (hmat) {
    info->hmat_failure_reason = e.what();
  } else {
    info->fallback = true;
    info->fallback_reason = e.what();
  }
}

}  // namespace

KleResult solve_kle(mesh::TriMesh mesh,
                    const kernels::CovarianceKernel& kernel,
                    const KleOptions& options, KleSolveInfo* info) {
  const std::size_t n = mesh.num_triangles();
  const std::size_t m = std::min(options.num_eigenpairs, n);
  require(m > 0, "solve_kle: need at least one eigenpair");
  obs::Span span("core.solve_kle");
  obs::counter("sckl.core.kle_solves").add(1);
  if (info != nullptr) *info = KleSolveInfo{};
  const bool matrix_free = options.operator_mode == OperatorMode::kMatrixFree;
  if (matrix_free) {
    require(options.quadrature == QuadratureRule::kCentroid1,
            "solve_kle: the matrix-free path evaluates centroid-rule entries "
            "on the fly and supports no other quadrature");
    obs::counter("sckl.core.kle_matfree_solves").add(1);
  }

  // kAssembled assembles B before the eigensolve; under kMatrixFree only
  // the QL stage assembles it, on demand. The assembly rejects NaN/Inf
  // entries, so one bad kernel evaluation cannot poison the spectrum.
  std::optional<linalg::Matrix> b;
  const auto assembled = [&]() -> const linalg::Matrix& {
    if (!b)
      b = assemble_galerkin_matrix(mesh, kernel, options.quadrature,
                                   kAutoThreads);
    return *b;
  };
  const linalg::LanczosOptions lanczos = lanczos_options_for(options, n, m);
  const Stage ql{"ql", [&](linalg::LanczosInfo*) {
                   return dense_eigensolve(assembled());
                 }};
  std::vector<Stage> stages;
  if (matrix_free) {
    stages.push_back({"hmat", [&](linalg::LanczosInfo* lanczos_info) {
      const std::unique_ptr<linalg::HMatrix> hmat =
          build_hmat_operator(mesh, kernel, options.matfree);
      if (info != nullptr) info->hmat = hmat->stats();
      return linalg::lanczos_largest(*hmat, lanczos, lanczos_info);
    }});
    stages.push_back({"exact", [&](linalg::LanczosInfo* lanczos_info) {
      const ExactKernelOperator exact(mesh, kernel,
                                      options.matfree.num_threads);
      return linalg::lanczos_largest(exact, lanczos, lanczos_info);
    }});
    if (n <= kDenseFallbackMaxN) stages.push_back(ql);
  } else {
    assembled();
    if (m * 3 < n)
      stages.push_back({"dense", [&](linalg::LanczosInfo* lanczos_info) {
        return linalg::lanczos_largest(
            linalg::DenseKernelOperator(*b, kAutoThreads), lanczos,
            lanczos_info);
      }});
    stages.push_back(ql);
  }

  obs::Span eigensolve_span("core.eigensolve");
  linalg::LanczosInfo* lanczos_info =
      info != nullptr ? &info->lanczos : nullptr;
  linalg::SymmetricEigenResult eigen;
  for (std::size_t s = 0;; ++s) {
    try {
      eigen = stages[s].run(lanczos_info);
      if (info != nullptr) info->operator_used = stages[s].name;
      break;
    } catch (const Error& e) {
      const bool last = s + 1 == stages.size();
      if ((e.code() != ErrorCode::kNoConvergence &&
           e.code() != ErrorCode::kOverloaded) ||
          (last && stages[s].name == ql.name))
        throw;
      record_failure(stages[s], e, info);
      if (last)
        throw e.with_context(
            "solve_kle: n = " + std::to_string(n) +
            " exceeds kDenseFallbackMaxN = " +
            std::to_string(kDenseFallbackMaxN) + ", so no QL fallback");
    }
  }

  // Un-scale: d = Phi^{-1/2} u, i.e. d_i = u_i / sqrt(a_i).
  linalg::Matrix coefficients(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_root = 1.0 / std::sqrt(mesh.area(i));
    for (std::size_t j = 0; j < m; ++j)
      coefficients(i, j) = eigen.vectors(i, j) * inv_root;
  }
  linalg::Vector values(eigen.values.begin(), eigen.values.begin() + m);
  KleResult result(std::move(mesh), std::move(values),
                   std::move(coefficients));
  if (result.clamped_count() > 0)
    obs::counter("sckl.core.clamped_eigenvalues").add(result.clamped_count());
  if (info != nullptr) {
    info->clamped_eigenvalues = result.clamped_count();
    info->clamped_magnitude = result.clamped_magnitude();
  }
  return result;
}

}  // namespace sckl::core
