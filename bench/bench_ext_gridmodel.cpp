// Extension bench: grid+PCA baseline (Sec. 2.1) vs the KLE model.
//
// The paper's core argument is that the grid model is ad hoc: its accuracy
// is capped by the grid resolution (gates sharing a cell are perfectly
// correlated) and the "right" resolution is unknowable a priori. This bench
// quantifies that on the SSTA task: for several grid resolutions and the
// KLE at the same reduced dimension r, compare worst-delay sigma against
// the dense Cholesky reference on one circuit.
//
// Flags: --circuit=c1908 --samples=2000 --r=25
#include <cmath>
#include <cstdio>

#include "circuit/synthetic.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/kle_solver.h"
#include "field/cholesky_sampler.h"
#include "field/kle_sampler.h"
#include "gridmodel/grid_model.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "placer/recursive_placer.h"
#include "ssta/experiment.h"
#include "ssta/mc_ssta.h"

int main(int argc, char** argv) {
  using namespace sckl;
  const CliFlags flags(argc, argv);
  const std::string circuit_name = flags.get_string("circuit", "c1908");
  const auto samples =
      static_cast<std::size_t>(flags.get_int("samples", 1200));
  const auto r = static_cast<std::size_t>(flags.get_int("r", 25));

  const circuit::Netlist netlist = circuit::make_paper_circuit(circuit_name);
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);
  const auto locations = placement.physical_locations(netlist);
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());

  ssta::McSstaOptions options;
  options.num_samples = samples;

  // Reference: exact covariance at the gate locations.
  const field::CholeskyFieldSampler reference_sampler(kernel, locations);
  const ssta::McSstaResult reference = run_monte_carlo_ssta(
      engine,
      {&reference_sampler, &reference_sampler, &reference_sampler,
       &reference_sampler},
      options);
  std::printf("# %s (%zu gates), %zu samples; reference sigma = %.3f ps\n",
              circuit_name.c_str(), netlist.num_physical_gates(), samples,
              reference.worst_delay.stddev());

  TextTable table;
  table.set_header({"model", "RVs", "sigma (ps)", "e_sigma(%)"});
  auto report = [&](const std::string& name, std::size_t rvs,
                    const ssta::McSstaResult& run) {
    table.add_row(
        {name, std::to_string(rvs), format_double(run.worst_delay.stddev(), 3),
         format_double(100.0 *
                           std::abs(run.worst_delay.stddev() -
                                    reference.worst_delay.stddev()) /
                           reference.worst_delay.stddev(),
                       2)});
  };

  for (std::size_t cells : {2u, 4u, 6u, 10u, 16u}) {
    const gridmodel::GridCorrelationModel model(
        kernel, geometry::BoundingBox::unit_die(), cells);
    const std::size_t rr = std::min<std::size_t>(r, model.num_cells());
    const gridmodel::GridPcaSampler sampler(model, rr, locations);
    const ssta::McSstaResult run = run_monte_carlo_ssta(
        engine, {&sampler, &sampler, &sampler, &sampler}, options);
    report("grid " + std::to_string(cells) + "x" + std::to_string(cells),
           rr, run);
  }

  const mesh::TriMesh mesh = mesh::paper_mesh();
  core::KleOptions kle_options;
  kle_options.num_eigenpairs = ssta::num_eigenpairs_for(r);
  const core::KleResult kle = core::solve_kle(mesh, kernel, kle_options);
  const field::KleFieldSampler kle_sampler(kle, r, locations);
  const ssta::McSstaResult kle_run = run_monte_carlo_ssta(
      engine, {&kle_sampler, &kle_sampler, &kle_sampler, &kle_sampler},
      options);
  report("KLE (n=" + std::to_string(mesh.num_triangles()) + ")", r, kle_run);

  std::printf("%s", table.to_string().c_str());
  std::printf("# coarse grids distort sigma (intra-cell gates perfectly "
              "correlated); the KLE needs no resolution choice\n");
  return 0;
}
