// Extension bench: canonical first-order SSTA vs Monte Carlo SSTA.
//
// The paper positions the KLE's uncorrelated RVs as the natural parameter
// basis for block-based SSTA engines [5][6]; this bench runs our canonical
// (Clark-max) engine on that basis and compares distribution accuracy and
// runtime against the Monte Carlo reference across the ISCAS set:
//   - mean/sigma relative errors of the worst-delay distribution,
//   - one canonical propagation vs N Monte Carlo evaluations.
//
// Flags: --samples=2000 --r=25 --max-gates=3000
#include <cmath>
#include <cstdio>

#include "circuit/synthetic.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/kle_solver.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "placer/recursive_placer.h"
#include "ssta/canonical.h"
#include "ssta/experiment.h"
#include "ssta/mc_ssta.h"

int main(int argc, char** argv) {
  using namespace sckl;
  const CliFlags flags(argc, argv);
  const auto samples =
      static_cast<std::size_t>(flags.get_int("samples", 1000));
  const auto r = static_cast<std::size_t>(flags.get_int("r", 25));
  const auto max_gates =
      static_cast<std::size_t>(flags.get_int("max-gates", 2500));

  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::paper_mesh();
  core::KleOptions kle_options;
  kle_options.num_eigenpairs = ssta::num_eigenpairs_for(r);
  const core::KleResult kle = core::solve_kle(mesh, kernel, kle_options);

  std::printf("# Canonical SSTA (Clark max on %zu KLE RVs x 4 parameters) "
              "vs Monte Carlo (%zu samples)\n",
              r, samples);
  TextTable table;
  table.set_header({"Circuit", "Ng", "MC mean", "canon mean", "e_mu(%)",
                    "MC sigma", "canon sigma", "e_sigma(%)", "MC(s)",
                    "canon(s)"});

  for (const auto& info : circuit::paper_circuit_table()) {
    if (info.num_gates > max_gates) continue;
    const circuit::Netlist netlist = circuit::make_paper_circuit(info.name);
    const placer::Placement placement = placer::place(netlist);
    const timing::CellLibrary library = timing::CellLibrary::default_90nm();
    const timing::StaEngine engine(netlist, placement, library);
    const auto locations = placement.physical_locations(netlist);
    const field::KleFieldSampler sampler(kle, r, locations);
    const linalg::Matrix& g = sampler.operator_transposed();

    const ssta::CanonicalSstaResult canonical =
        ssta::run_canonical_ssta(engine, {&g, &g, &g, &g});

    ssta::McSstaOptions mc_options;
    mc_options.num_samples = samples;
    const ssta::McSstaResult mc = run_monte_carlo_ssta(
        engine, {&sampler, &sampler, &sampler, &sampler}, mc_options);
    const double mc_time = mc.sampling_seconds + mc.sta_seconds;

    table.add_row(
        {info.name, std::to_string(info.num_gates),
         format_double(mc.worst_delay.mean(), 1),
         format_double(canonical.worst_delay.mean(), 1),
         format_double(100.0 *
                           std::abs(canonical.worst_delay.mean() -
                                    mc.worst_delay.mean()) /
                           mc.worst_delay.mean(),
                       3),
         format_double(mc.worst_delay.stddev(), 2),
         format_double(canonical.worst_delay.sigma(), 2),
         format_double(100.0 *
                           std::abs(canonical.worst_delay.sigma() -
                                    mc.worst_delay.stddev()) /
                           mc.worst_delay.stddev(),
                       2),
         format_double(mc_time, 3), format_double(canonical.seconds, 4)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("# expectations: e_mu ~ fraction of a percent (Clark max bias"
              " + linearization), e_sigma single-digit percent, canonical"
              " runtime orders of magnitude below MC\n");
  return 0;
}
