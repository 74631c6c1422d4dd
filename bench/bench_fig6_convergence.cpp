// Fig. 6 of the paper: relative error in the covariance-kernel STA estimate
// of the delay standard deviation at every circuit output, averaged over
// the outputs of a c1908-sized circuit (880 gates), as a function of
//  (a) the number of eigenpairs r at fixed mesh size, and
//  (b) the number of mesh triangles n at fixed r = 25.
// The reference is the Cholesky Monte Carlo STA (Algorithm 1) with the
// same sample budget.
//
// Flags: --circuit=c1908 --samples=1500 --r-max=25 --seed=1 --threads=K
//        (paper: 100K samples; scale down for a single-core run)
#include <cstdio>

#include "common/cli.h"
#include "obs/export.h"
#include "common/statistics.h"
#include "common/table.h"
#include "mesh/refine.h"
#include "mesh/structured_mesher.h"
#include "ssta/experiment.h"

namespace {

// Mean relative sigma error across endpoints vs the cached reference.
double endpoint_error(const sckl::ssta::McSstaResult& reference,
                      const sckl::ssta::McSstaResult& candidate) {
  sckl::RunningStats error;
  for (std::size_t e = 0; e < reference.endpoint.size(); ++e) {
    const double ref_sigma = reference.endpoint[e].stddev();
    if (ref_sigma <= 0.0) continue;
    error.add(std::abs(candidate.endpoint[e].stddev() - ref_sigma) /
              ref_sigma);
  }
  return error.mean();
}

int run(const sckl::CliFlags& flags) {
  using namespace sckl;
  ssta::ExperimentConfig config;
  config.circuit = "c1908";
  // Noise floor of a sigma-vs-sigma comparison is ~1/sqrt(N); 2000 samples
  // put it at ~2.2% (the paper's 100K reference sat at ~0.3%).
  config.num_samples = 1500;
  ssta::add_experiment_flags(flags, config);
  const auto r_max = static_cast<std::size_t>(flags.get_int("r-max", 25));

  ssta::ExperimentPipeline pipeline(config);
  std::printf("# Fig 6: circuit %s (%zu gates), %zu samples/run, reference ="
              " Cholesky MC STA\n",
              config.circuit.c_str(), pipeline.num_gates(),
              config.num_samples);
  const ssta::McSstaResult& reference = pipeline.reference();
  std::printf("# reference worst delay: mean %.2f ps, sigma %.3f ps\n\n",
              reference.worst_delay.mean(), reference.worst_delay.stddev());

  // (a) error vs r at the paper mesh.
  const mesh::TriMesh paper = mesh::paper_mesh(
      geometry::BoundingBox::unit_die(), 0.001, config.seed + 7);
  std::printf("# Fig 6(a): error vs eigenpairs r (n = %zu)\n",
              paper.num_triangles());
  TextTable by_r;
  by_r.set_header({"r", "avg sigma_d error (%)"});
  for (std::size_t r : {1u, 2u, 4u, 6u, 9u, 12u, 16u, 20u, 25u}) {
    if (r > r_max) break;
    ssta::KleRunRequest request;
    request.r = r;
    request.num_eigenpairs = std::max<std::size_t>(2 * r, 30);
    request.mesh = &paper;
    request.matrix_free = config.matrix_free;
    request.aca_tolerance = config.aca_tolerance;
    const ssta::McSstaResult result = pipeline.run_kle(request).ssta;
    by_r.add_row({std::to_string(r),
                  format_double(100.0 * endpoint_error(reference, result), 3)});
  }
  std::fputs(by_r.to_string().c_str(), stdout);

  // (b) error vs n at r = 25 (structured meshes give exact n control).
  std::printf("\n# Fig 6(b): error vs triangles n (r = %zu)\n", r_max);
  TextTable by_n;
  by_n.set_header({"n", "avg sigma_d error (%)"});
  for (std::size_t target : {64u, 144u, 324u, 576u, 1024u, 1600u}) {
    const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
        geometry::BoundingBox::unit_die(), target,
        mesh::StructuredPattern::kCross);
    ssta::KleRunRequest request;
    request.r = std::min(r_max, mesh.num_triangles());
    request.num_eigenpairs = std::max<std::size_t>(2 * r_max, 50);
    request.mesh = &mesh;
    request.matrix_free = config.matrix_free;
    request.aca_tolerance = config.aca_tolerance;
    const ssta::McSstaResult result = pipeline.run_kle(request).ssta;
    by_n.add_row({std::to_string(mesh.num_triangles()),
                  format_double(100.0 * endpoint_error(reference, result), 3)});
  }
  std::fputs(by_n.to_string().c_str(), stdout);
  std::printf("\n# paper: errors < 2.8%% at (r, n) = (25, 1546), decreasing"
              " in both r and n (noise floor from the finite MC reference)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const sckl::CliFlags flags(argc, argv);
  return sckl::obs::run_tool("bench_fig6_convergence", flags,
                             [&] { return run(flags); });
}
