#include "core/matfree_operator.h"

#include <atomic>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sckl::core {
namespace {

// Tile shape of the exact matvec: each worker evaluates a rows x cols kernel
// panel into scratch and multiplies it with the dispatched GEMM kernels.
// Sized so the panel (~256 KiB) stays L2-resident while amortizing the
// per-tile bookkeeping over enough kernel evaluations.
constexpr std::size_t kRowTile = 128;
constexpr std::size_t kColTile = 256;

}  // namespace

GalerkinEntrySource::GalerkinEntrySource(
    const mesh::TriMesh& mesh, const kernels::CovarianceKernel& kernel)
    : mesh_(mesh), kernel_(kernel) {
  require(mesh.num_triangles() > 0,
          "matfree: mesh must have at least one triangle");
  sqrt_area_.resize(mesh.num_triangles());
  for (std::size_t i = 0; i < sqrt_area_.size(); ++i)
    sqrt_area_[i] = std::sqrt(mesh.area(i));
}

double GalerkinEntrySource::entry(std::size_t i, std::size_t k) const {
  return kernel_(mesh_.centroid(i), mesh_.centroid(k)) * sqrt_area_[i] *
         sqrt_area_[k];
}

void GalerkinEntrySource::row_slice(std::size_t i, const std::size_t* cols,
                                    std::size_t count, double* out) const {
  // Batched form of entry(): sqrt(a_i) and c_i are loaded once per row
  // instead of once per entry — this is the ACA / dense-tile hot path.
  const double sqrt_ai = sqrt_area_[i];
  const geometry::Point2 ci = mesh_.centroid(i);
  const auto& centroids = mesh_.centroids();
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t k = cols[c];
    out[c] = kernel_(ci, centroids[k]) * sqrt_ai * sqrt_area_[k];
  }
}

ExactKernelOperator::ExactKernelOperator(
    const mesh::TriMesh& mesh, const kernels::CovarianceKernel& kernel,
    std::size_t num_threads)
    : source_(mesh, kernel),
      num_threads_(ThreadPool::resolve_num_threads(num_threads)) {}

void ExactKernelOperator::apply(const linalg::Vector& x,
                                linalg::Vector& y) const {
  const std::size_t n = source_.dim();
  require(x.size() == n, "matfree: exact apply dimension mismatch");
  obs::Span span("core.matfree.exact_apply");
  {
    static obs::Counter& matvecs =
        obs::counter("sckl.core.matfree.exact_matvecs");
    matvecs.add(1);
  }
  y.assign(n, 0.0);
  const std::size_t num_row_tiles = (n + kRowTile - 1) / kRowTile;

  // Each worker owns whole row tiles (claimed through the shared counter)
  // and walks their column tiles in ascending order, so every y_i is one
  // fixed reduction chain regardless of thread count: gemm_add resumes each
  // output element's fma chain exactly where the previous column tile left
  // it, and double spills are exact.
  const auto run_tiles = [&](std::atomic<std::size_t>& next) {
    linalg::Matrix tile;       // row-tile x col-tile kernel panel
    linalg::Matrix xb, yb;     // col-tile x 1 input, row-tile x 1 output
    std::vector<std::size_t> cols(kColTile);
    for (;;) {
      const std::size_t rt = next.fetch_add(1);
      if (rt >= num_row_tiles) break;
      const std::size_t r0 = rt * kRowTile;
      const std::size_t rows = std::min(kRowTile, n - r0);
      yb.reshape(rows, 1);
      yb.fill(0.0);
      for (std::size_t c0 = 0; c0 < n; c0 += kColTile) {
        const std::size_t ncols = std::min(kColTile, n - c0);
        for (std::size_t c = 0; c < ncols; ++c) cols[c] = c0 + c;
        tile.reshape(rows, ncols);
        for (std::size_t r = 0; r < rows; ++r)
          source_.row_slice(r0 + r, cols.data(), ncols, tile.row_ptr(r));
        xb.reshape(ncols, 1);
        for (std::size_t c = 0; c < ncols; ++c) xb(c, 0) = x[c0 + c];
        linalg::gemm_add(tile, xb, yb);
      }
      for (std::size_t r = 0; r < rows; ++r) y[r0 + r] = yb(r, 0);
    }
  };

  std::atomic<std::size_t> next{0};
  if (num_threads_ <= 1 || num_row_tiles <= 1) {
    run_tiles(next);
  } else {
    ThreadPool pool(std::min(num_threads_, num_row_tiles));
    pool.run([&](std::size_t) { run_tiles(next); });
  }
}

std::unique_ptr<linalg::HMatrix> build_hmat_operator(
    const mesh::TriMesh& mesh, const kernels::CovarianceKernel& kernel,
    const linalg::HmatOptions& options) {
  const GalerkinEntrySource source(mesh, kernel);
  const auto& centroids = mesh.centroids();
  std::vector<double> xs(centroids.size()), ys(centroids.size());
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    xs[i] = centroids[i].x;
    ys[i] = centroids[i].y;
  }
  return std::make_unique<linalg::HMatrix>(source, xs, ys, options);
}

}  // namespace sckl::core
