// Statistical sign-off: the flow a designer would actually run with this
// library.
//
//   1. Build + place the design, run nominal STA; inspect the critical
//      path and the slack histogram at the target period.
//   2. Build the spatial-correlation model (kernel -> mesh -> KLE).
//   3. One canonical SSTA pass: worst-delay distribution, per-mode
//      variance attribution (PCE), and the period that meets 3-sigma yield.
//   4. Spot-check with a short Monte Carlo run.
//
// Usage: ./examples/signoff [--circuit=c880] [--period=0]
#include <cstdio>

#include "circuit/synthetic.h"
#include "common/cli.h"
#include "core/kle_solver.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "placer/recursive_placer.h"
#include "ssta/canonical.h"
#include "ssta/mc_ssta.h"
#include "ssta/pce.h"
#include "ssta/yield.h"
#include "timing/critical_path.h"
#include "timing/slack.h"

int main(int argc, char** argv) {
  using namespace sckl;
  const CliFlags flags(argc, argv);
  const std::string name = flags.get_string("circuit", "c880");

  // 1. Deterministic timing.
  const circuit::Netlist netlist = circuit::make_paper_circuit(name);
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);
  timing::StaTrace trace;
  const timing::StaResult nominal = engine.run_nominal(&trace);
  std::printf("== %s: %zu gates, nominal worst delay %.1f ps ==\n\n",
              name.c_str(), netlist.num_physical_gates(),
              nominal.worst_delay);

  const timing::CriticalPath path =
      timing::extract_critical_path(engine, nominal, trace);
  std::printf("%s\n", timing::format_critical_path(netlist, path).c_str());

  const double period = flags.get_double("period", 0.0) > 0.0
                            ? flags.get_double("period", 0.0)
                            : 1.05 * nominal.worst_delay;
  const timing::SlackReport slacks =
      timing::compute_slacks(engine, trace, period);
  std::printf("slack at T = %.1f ps: worst %.1f ps, %zu negative-slack "
              "gates\n\n",
              period, slacks.worst_slack, slacks.num_negative);

  // 2. Spatial correlation model.
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::paper_mesh();
  core::KleOptions kle_options;
  kle_options.num_eigenpairs = 50;
  const core::KleResult kle = core::solve_kle(mesh, kernel, kle_options);
  const auto locations = placement.physical_locations(netlist);
  const field::KleFieldSampler sampler(kle, 25, locations);
  const linalg::Matrix& g = sampler.operator_transposed();

  // 3. Canonical SSTA + attribution + yield.
  const ssta::CanonicalSstaResult canonical =
      ssta::run_canonical_ssta(engine, {&g, &g, &g, &g});
  std::printf("canonical SSTA (%.1f ms): worst delay %.1f ps +/- %.1f ps\n",
              canonical.seconds * 1e3, canonical.worst_delay.mean(),
              canonical.worst_delay.sigma());
  std::printf("statistical yield at T = %.1f ps: %.2f%%\n", period,
              100.0 * ssta::canonical_yield(canonical.worst_delay, period));
  std::printf("period for 3-sigma (99.865%%) yield: %.1f ps\n\n",
              ssta::canonical_period_for_yield(canonical.worst_delay,
                                               0.99865));

  ssta::PceOptions pce_options;
  pce_options.dims_per_parameter = 3;
  pce_options.num_samples = 600;
  const ssta::PceAnalysis pce =
      fit_worst_delay_pce(engine, {&g, &g, &g, &g}, pce_options);
  std::printf("variance attribution (PCE, %zu dims, fit %.1f ms):\n",
              pce.model.num_dimensions(), pce.fit_seconds * 1e3);
  for (std::size_t d = 0; d < pce.model.num_dimensions(); ++d) {
    const auto [param, mode] = pce.dimension_origin[d];
    const double fraction = pce.model.main_effect_fraction(d);
    if (fraction < 0.01) continue;
    std::printf("  %-3s KLE mode %zu: %5.1f%% of variance\n",
                timing::stat_parameter_name(param), mode + 1,
                100.0 * fraction);
  }
  std::printf("  interactions: %.1f%%  | unexplained: %.1f%%\n\n",
              100.0 * pce.model.interaction_fraction(),
              100.0 * pce.model.residual_variance() /
                  pce.model.variance());

  // 4. Monte Carlo spot check.
  ssta::McSstaOptions mc_options;
  mc_options.num_samples = 1000;
  mc_options.keep_samples = true;
  const ssta::McSstaResult mc = run_monte_carlo_ssta(
      engine, {&sampler, &sampler, &sampler, &sampler}, mc_options);
  std::printf("Monte Carlo spot check (%zu samples): mean %.1f ps, sigma "
              "%.1f ps, empirical yield at T %.2f%%\n",
              mc_options.num_samples, mc.worst_delay.mean(),
              mc.worst_delay.stddev(),
              100.0 * ssta::empirical_yield(mc.worst_delay_samples, period));
  return 0;
}
