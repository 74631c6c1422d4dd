// Ablation bench for the design choices the paper calls out in Sec. 4:
//  1. Quadrature order: the paper uses the 1-point centroid rule (eq. 21)
//     and notes higher-order rules "would result in more accurate
//     estimates". Quantify: eigenvalue error vs the analytic solution of
//     the separable L1 exponential kernel for 1/3/7-point rules.
//  2. Mesh family: structured diagonal vs structured cross vs refined
//     Delaunay, eigenvalue accuracy at comparable n.
//  3. Eigensolver: dense QL vs solve_kle's Lanczos agreement and runtime.
//  4. Kernel realism: the analytically-convenient radial-magnitude kernel
//     of [2] vs the Gaussian — spatial correlation structure at equal
//     nominal decay (the paper's Sec. 3.1 criticism, quantified).
//
// Flags: --n=576 --modes=8 --c=1.0
#include <cmath>
#include <cstdio>

#include "common/cli.h"
#include "obs/export.h"
#include "obs/stopwatch.h"
#include "common/table.h"
#include "core/analytic_kle.h"
#include "core/kle_solver.h"
#include "kernels/kernel_library.h"
#include "linalg/symmetric_eigen.h"
#include "mesh/refine.h"
#include "mesh/structured_mesher.h"

namespace {

int run(const sckl::CliFlags& flags) {
  using namespace sckl;
  const auto n = static_cast<std::size_t>(flags.get_int("n", 576));
  const auto modes = static_cast<std::size_t>(flags.get_int("modes", 8));
  const double c = flags.get_double("c", 1.0);

  const kernels::SeparableL1Kernel kernel(c);
  const auto analytic = core::analytic_separable_kle_2d(c, 1.0, modes);

  auto max_eigenvalue_error = [&](const mesh::TriMesh& mesh,
                                  core::QuadratureRule rule) {
    core::KleOptions options;
    options.num_eigenpairs = modes;
    options.quadrature = rule;
    const core::KleResult kle = core::solve_kle(mesh, kernel, options);
    double worst = 0.0;
    for (std::size_t j = 0; j < modes; ++j)
      worst = std::max(worst, std::abs(kle.eigenvalue(j) -
                                       analytic[j].lambda) /
                                  analytic[0].lambda);
    return worst;
  };

  // 1. Quadrature order sweep on the same mesh.
  std::printf("# Ablation 1: quadrature order (separable L1 kernel, "
              "analytic reference, n ~ %zu)\n", n);
  const mesh::TriMesh base = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), n, mesh::StructuredPattern::kCross);
  TextTable quad;
  quad.set_header({"rule", "max rel eigenvalue error", "assembly cost"});
  for (const auto& [rule, name] :
       {std::pair{core::QuadratureRule::kCentroid1, "centroid-1 (paper)"},
        std::pair{core::QuadratureRule::kSymmetric3, "symmetric-3"},
        std::pair{core::QuadratureRule::kSymmetric7, "symmetric-7"}}) {
    obs::Stopwatch sw;
    const double error = max_eigenvalue_error(base, rule);
    quad.add_row({name, format_scientific(error),
                  format_double(sw.seconds(), 2) + "s"});
  }
  std::fputs(quad.to_string().c_str(), stdout);

  // 2. Mesh family sweep at the centroid rule.
  std::printf("\n# Ablation 2: mesh family (centroid rule)\n");
  TextTable mesh_table;
  mesh_table.set_header({"mesh", "n", "min angle", "max rel error"});
  const mesh::TriMesh diag = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), n,
      mesh::StructuredPattern::kDiagonal);
  const mesh::TriMesh cross = base;
  const mesh::TriMesh delaunay = mesh::refined_delaunay_mesh(
      geometry::BoundingBox::unit_die(),
      {.max_area = 4.0 / static_cast<double>(n) * 2.0, .seed = 5});
  for (const auto& [mesh_ref, name] :
       {std::pair<const mesh::TriMesh&, const char*>{diag, "structured diag"},
        {cross, "structured cross"},
        {delaunay, "refined Delaunay"}}) {
    mesh_table.add_row(
        {name, std::to_string(mesh_ref.num_triangles()),
         format_double(mesh_ref.quality().min_angle_degrees, 1),
         format_scientific(max_eigenvalue_error(
             mesh_ref, core::QuadratureRule::kCentroid1))});
  }
  std::fputs(mesh_table.to_string().c_str(), stdout);

  // 3. Eigensolver agreement + runtime: solve_kle's Lanczos route against
  // full QL on the assembled matrix (both times include assembly).
  std::printf("\n# Ablation 3: eigensolver (Gaussian kernel)\n");
  const kernels::GaussianKernel gauss(2.33);
  TextTable solver;
  solver.set_header({"eigensolver", "lambda_1", "lambda_25", "seconds"});
  {
    obs::Stopwatch sw;
    const linalg::Vector values =
        linalg::symmetric_eigen(core::assemble_galerkin_matrix(
                                    base, gauss,
                                    core::QuadratureRule::kCentroid1))
            .values;
    solver.add_row({"dense QL", format_scientific(values[0]),
                     format_scientific(values[24]),
                     format_double(sw.seconds(), 3)});
  }
  {
    core::KleOptions options;
    options.num_eigenpairs = 25;
    obs::Stopwatch sw;
    const core::KleResult kle = core::solve_kle(base, gauss, options);
    solver.add_row({"Lanczos", format_scientific(kle.eigenvalue(0)),
                     format_scientific(kle.eigenvalue(24)),
                     format_double(sw.seconds(), 3)});
  }
  std::fputs(solver.to_string().c_str(), stdout);

  // 4. Kernel realism: correlation between equidistant point pairs.
  std::printf("\n# Ablation 4: radial-magnitude kernel [2] vs Gaussian — "
              "correlation of two pairs at equal separation sqrt(2)\n");
  const kernels::RadialMagnitudeKernel radial(2.33);
  TextTable realism;
  realism.set_header({"kernel", "K((1,0),(0,1))", "K((0.5,0),(0.5,1.41))"});
  realism.add_row({"gaussian",
                   format_double(gauss({1, 0}, {0, 1}), 4),
                   format_double(gauss({0.5, 0}, {0.5, 1.4142}), 4)});
  realism.add_row({"radial-magnitude [2]",
                   format_double(radial({1, 0}, {0, 1}), 4),
                   format_double(radial({0.5, 0}, {0.5, 1.4142}), 4)});
  std::fputs(realism.to_string().c_str(), stdout);
  std::printf("# the [2] kernel reports perfect correlation for the first "
              "pair (same radius) — physically wrong, as Sec. 3.1 argues\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const sckl::CliFlags flags(argc, argv);
  return sckl::obs::run_tool("bench_ablation_quadrature", flags,
                             [&] { return run(flags); });
}
