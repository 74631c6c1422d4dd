// Extension bench: P0 (paper) vs P1 (higher-order) Galerkin basis.
//
// Sec. 4.2 of the paper claims higher-order bases "would result in more
// accurate estimates of the eigenpairs" at no structural cost. Quantified
// here on the separable L1 exponential kernel (the analytic oracle):
//   - eigenvalue error vs mesh resolution for both bases,
//   - pointwise kernel reconstruction error at off-centroid locations
//     (where P0 pays its O(h) staircase penalty),
//   - assembly + solve runtime.
//
// Flags: --modes=6 --c=1.0
#include <cmath>
#include <cstdio>

#include "common/cli.h"
#include "obs/export.h"
#include "common/rng.h"
#include "obs/stopwatch.h"
#include "common/table.h"
#include "core/analytic_kle.h"
#include "core/kle_solver.h"
#include "core/p1_galerkin.h"
#include "kernels/kernel_library.h"
#include "mesh/structured_mesher.h"

namespace {

int run(const sckl::CliFlags& flags) {
  using namespace sckl;
  const auto modes = static_cast<std::size_t>(flags.get_int("modes", 6));
  const double c = flags.get_double("c", 1.0);

  const kernels::SeparableL1Kernel kernel(c);
  const auto analytic = core::analytic_separable_kle_2d(c, 1.0, modes);

  std::printf("# P0 vs P1 Galerkin: eigenvalue error vs analytic "
              "(separable exp kernel, c=%g, %zu modes)\n",
              c, modes);
  TextTable table;
  table.set_header({"grid", "P0 n", "P0 err", "P0 time", "P1 verts",
                    "P1 err", "P1 time"});
  for (std::size_t grid : {4u, 8u, 12u, 16u}) {
    const mesh::TriMesh mesh =
        mesh::structured_mesh(geometry::BoundingBox::unit_die(), grid, grid,
                              mesh::StructuredPattern::kCross);
    obs::Stopwatch t0;
    core::KleOptions p0_options;
    p0_options.num_eigenpairs = modes;
    const core::KleResult p0 = core::solve_kle(mesh, kernel, p0_options);
    const double p0_time = t0.seconds();

    obs::Stopwatch t1;
    core::P1KleOptions p1_options;
    p1_options.num_eigenpairs = modes;
    const core::P1KleResult p1 = core::solve_p1_kle(mesh, kernel, p1_options);
    const double p1_time = t1.seconds();

    double p0_err = 0.0;
    double p1_err = 0.0;
    for (std::size_t j = 0; j < modes; ++j) {
      p0_err = std::max(p0_err, std::abs(p0.eigenvalue(j) -
                                         analytic[j].lambda) /
                                    analytic[0].lambda);
      p1_err = std::max(p1_err, std::abs(p1.eigenvalue(j) -
                                         analytic[j].lambda) /
                                    analytic[0].lambda);
    }
    table.add_row({std::to_string(grid) + "x" + std::to_string(grid),
                   std::to_string(mesh.num_triangles()),
                   format_scientific(p0_err),
                   format_double(p0_time, 3) + "s",
                   std::to_string(mesh.num_vertices()),
                   format_scientific(p1_err),
                   format_double(p1_time, 3) + "s"});
  }
  std::printf("%s", table.to_string().c_str());

  // Pointwise reconstruction at random (off-centroid) probes.
  std::printf("\n# pointwise kernel reconstruction error, 25 eigenpairs, "
              "grid 10x10 cross, 400 random probe pairs\n");
  const kernels::GaussianKernel gauss(2.7974);
  const mesh::TriMesh mesh = mesh::structured_mesh(
      geometry::BoundingBox::unit_die(), 10, 10,
      mesh::StructuredPattern::kCross);
  core::KleOptions p0_options;
  p0_options.num_eigenpairs = 25;
  const core::KleResult p0 = core::solve_kle(mesh, gauss, p0_options);
  core::P1KleOptions p1_options;
  p1_options.num_eigenpairs = 25;
  const core::P1KleResult p1 = core::solve_p1_kle(mesh, gauss, p1_options);
  Rng rng(3);
  double p0_worst = 0.0;
  double p1_worst = 0.0;
  for (int probe = 0; probe < 400; ++probe) {
    const geometry::Point2 x{rng.uniform(-0.95, 0.95),
                             rng.uniform(-0.95, 0.95)};
    const geometry::Point2 y{rng.uniform(-0.95, 0.95),
                             rng.uniform(-0.95, 0.95)};
    const double truth = gauss(x, y);
    p0_worst =
        std::max(p0_worst, std::abs(p0.reconstruct_kernel(x, y, 25) - truth));
    p1_worst =
        std::max(p1_worst, std::abs(p1.reconstruct_kernel(x, y, 25) - truth));
  }
  std::printf("P0 max |err| = %.4f   P1 max |err| = %.4f\n", p0_worst,
              p1_worst);
  std::printf("# P1's continuous eigenfunctions remove the O(h) staircase "
              "of the piecewise-constant basis\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const sckl::CliFlags flags(argc, argv);
  return sckl::obs::run_tool("bench_ext_p1_basis", flags,
                             [&] { return run(flags); });
}
