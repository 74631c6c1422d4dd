// Extension bench: timing yield and sampling-scheme variance reduction.
//
// Part 1 — yield curves: P(delay <= T) from (a) retained Monte Carlo
// samples and (b) the canonical SSTA's normal model, swept across the
// distribution. Agreement in the body, mild divergence in the upper tail
// (max-of-normals is right-skewed) is the expected picture.
//
// Part 2 — Latin hypercube vs plain Monte Carlo: spread of the worst-delay
// sigma estimate across repetitions at equal sample budget. LHS stratifies
// the r-dimensional KLE space, which is exactly where low-dimensional
// sampling pays off.
//
// Flags: --circuit=c880 --samples=1500 --r=25 --reps=12
#include <cmath>
#include <cstdio>

#include "circuit/synthetic.h"
#include "common/cli.h"
#include "common/statistics.h"
#include "common/table.h"
#include "core/kle_solver.h"
#include "field/kle_sampler.h"
#include "field/lhs.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "placer/recursive_placer.h"
#include "ssta/canonical.h"
#include "ssta/experiment.h"
#include "ssta/mc_ssta.h"
#include "ssta/yield.h"

int main(int argc, char** argv) {
  using namespace sckl;
  const CliFlags flags(argc, argv);
  const std::string circuit_name = flags.get_string("circuit", "c880");
  const auto samples =
      static_cast<std::size_t>(flags.get_int("samples", 1500));
  const auto r = static_cast<std::size_t>(flags.get_int("r", 25));
  const int reps = static_cast<int>(flags.get_int("reps", 12));

  const circuit::Netlist netlist = circuit::make_paper_circuit(circuit_name);
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);
  const auto locations = placement.physical_locations(netlist);

  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::paper_mesh();
  core::KleOptions kle_options;
  kle_options.num_eigenpairs = ssta::num_eigenpairs_for(r);
  const core::KleResult kle = core::solve_kle(mesh, kernel, kle_options);
  const field::KleFieldSampler sampler(kle, r, locations);

  // Part 1: yield curves.
  ssta::McSstaOptions options;
  options.num_samples = samples;
  options.keep_samples = true;
  const ssta::McSstaResult mc = run_monte_carlo_ssta(
      engine, {&sampler, &sampler, &sampler, &sampler}, options);
  const linalg::Matrix& g = sampler.operator_transposed();
  const ssta::CanonicalSstaResult canonical =
      ssta::run_canonical_ssta(engine, {&g, &g, &g, &g});

  std::printf("# %s: yield curves, %zu MC samples vs canonical normal\n",
              circuit_name.c_str(), samples);
  const auto empirical =
      ssta::empirical_yield_curve(mc.worst_delay_samples, 15);
  const auto parametric =
      ssta::canonical_yield_curve(canonical.worst_delay, empirical);
  TextTable curve;
  curve.set_header({"T (ps)", "MC yield", "canonical yield"});
  for (std::size_t i = 0; i < empirical.size(); ++i)
    curve.add_numeric_row({empirical[i].period, empirical[i].yield,
                           parametric[i].yield});
  std::fputs(curve.to_string().c_str(), stdout);
  std::printf("# canonical 99.87%% (3-sigma) period: %.1f ps | empirical "
              "99.87%% quantile: %.1f ps\n\n",
              ssta::canonical_period_for_yield(canonical.worst_delay,
                                               0.99865),
              quantile(mc.worst_delay_samples, 0.99865));

  // Part 2: LHS vs plain MC spread of the sigma estimate. Use the reduced
  // sampler directly so the latent space is the r-dimensional one.
  std::printf("# sigma-estimate spread over %d repetitions, %zu samples "
              "each (xi sampling scheme comparison, first parameter only)\n",
              reps, samples / 4);
  const std::size_t n_rep = samples / 4;
  RunningStats plain_sigmas;
  RunningStats lhs_sigmas;
  timing::StaBlockResult timed;  // one block timer scratch for every rep
  for (int rep = 0; rep < reps; ++rep) {
    const StreamKey key{500 + static_cast<std::uint64_t>(rep), 0};
    // Plain: sampler's own normal draws.
    linalg::Matrix block;
    sampler.sample_block(field::SampleRange{0, n_rep}, key, block);
    RunningStats plain_stat;
    engine.run_block({block.data(), block.data(), block.data(), block.data()},
                     block.cols(), n_rep, timed);
    for (const double worst : timed.worst_delay) plain_stat.add(worst);
    plain_sigmas.add(plain_stat.stddev());
    // LHS: stratified xi, same reconstruction (parameter_id 1 keeps the
    // stream distinct from the plain draw above).
    linalg::Matrix xi;
    field::latin_hypercube_normal(
        n_rep, r, StreamKey{500 + static_cast<std::uint64_t>(rep), 1}, xi);
    linalg::Matrix lhs_block;
    sampler.reconstruct(xi, lhs_block);
    RunningStats lhs_stat;
    engine.run_block({lhs_block.data(), lhs_block.data(), lhs_block.data(),
                      lhs_block.data()},
                     lhs_block.cols(), n_rep, timed);
    for (const double worst : timed.worst_delay) lhs_stat.add(worst);
    lhs_sigmas.add(lhs_stat.stddev());
  }
  TextTable spread;
  spread.set_header({"scheme", "mean sigma-hat", "spread of sigma-hat"});
  spread.add_row({"plain MC", format_double(plain_sigmas.mean(), 2),
                  format_double(plain_sigmas.stddev(), 3)});
  spread.add_row({"Latin hypercube", format_double(lhs_sigmas.mean(), 2),
                  format_double(lhs_sigmas.stddev(), 3)});
  std::fputs(spread.to_string().c_str(), stdout);
  std::printf("# note: this scheme uses one shared field across the four "
              "parameters, so sigma-hat levels differ from Part 1\n");
  return 0;
}
