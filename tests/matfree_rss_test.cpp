// Peak-memory gate of the matrix-free KLE solve (DESIGN.md §14), in a test
// binary of its own so that getrusage's peak RSS is this one solve's. At
// n = 20,164 the dense Galerkin matrix alone would take 8 n^2 = 3.25 GB; the
// hierarchical operator must solve eight pairs under 1,500 MiB of peak RSS.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <utility>

#include "core/kle_solver.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/structured_mesher.h"

namespace sckl {
namespace {

TEST(MatrixFreePeakRss, SolvesPastTheDenseCeilingUnderTheBound) {
  mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 20'000);
  ASSERT_EQ(mesh.num_triangles(), 20'164u);
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());

  core::KleOptions options;
  options.num_eigenpairs = 8;
  options.operator_mode = core::OperatorMode::kMatrixFree;
  options.matfree.aca_tolerance = 1e-8;
  options.matfree.leaf_size = 64;
  options.lanczos_max_subspace = 64;
  core::KleSolveInfo info;
  const core::KleResult kle =
      core::solve_kle(std::move(mesh), kernel, options, &info);
  EXPECT_EQ(info.operator_used, "hmat");
  EXPECT_EQ(kle.num_eigenpairs(), 8u);

  struct rusage usage {};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
#if defined(__APPLE__)
  const double peak_mib = static_cast<double>(usage.ru_maxrss) / (1 << 20);
#else
  const double peak_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
  EXPECT_LE(peak_mib, 1500.0);
}

}  // namespace
}  // namespace sckl
