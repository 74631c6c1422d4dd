// Workload kle_offline: rounds of cold KLE builds on the paper mesh.
//
// Why: this is the paper's offline step (Sec. 3-4) and the only workload
// where Delaunay refinement, Galerkin assembly and assembled Lanczos do most
// of the work. Each build runs mesh::paper_mesh (unit die, max area 0.1%,
// n ~ 2447) then an assembled core::solve_kle. A round covers four inputs
// that shift the split between those layers: cheap against Bessel-function
// kernel evaluation, fast against slow spectral decay, m = 50 against 200.
//   1. Gaussian paper fit, m = 50 (the ssta_flow default);
//   2. the same kernel at m = 200, cut to r by core::select_truncation;
//   3. the Matern kernel of eq. 6 (b = 3, s = 2.5), m = 50;
//   4. the separable-L1 exponential (c = 1), m = 50, which has an analytic
//      KLE to check against.
// Measured on a 4-vCPU KVM host at 2 threads: Gaussian m = 50 took
// 1.35-1.81 s across processes (mesh.refine ~60%, Lanczos ~27%, assembly
// ~11%); m = 200 took 3.6 s with 223 Lanczos iterations and r = 25; the
// Matern m = 50 solve took 1.36 s against 0.70 s for the Gaussian.
//
// Unit of work: one build. op_ms is the median over rounds of the round's
// build time divided by the four builds in it.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/analytic_kle.h"
#include "core/kle_health.h"
#include "core/kle_solver.h"
#include "core/truncation.h"
#include "harness.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "paper_inputs.h"

namespace perfbench {
namespace {

using namespace sckl;

struct Input {
  const char* name;  // per-layer metric suffix
  std::unique_ptr<kernels::CovarianceKernel> kernel;
  std::size_t pairs;
};

std::vector<Input> make_inputs() {
  std::vector<Input> inputs;
  const double c = kernels::paper_gaussian_c();
  inputs.push_back({"gauss_m50", std::make_unique<kernels::GaussianKernel>(c), 50});
  inputs.push_back({"gauss_m200", std::make_unique<kernels::GaussianKernel>(c), 200});
  inputs.push_back({"matern_m50", std::make_unique<kernels::MaternKernel>(3.0, 2.5), 50});
  inputs.push_back({"sepl1_m50", std::make_unique<kernels::SeparableL1Kernel>(1.0), 50});
  return inputs;
}

/// One cold build: refine the paper mesh, then solve the assembled KLE.
/// The mesh is returned alongside because the result borrows it.
struct Build {
  std::unique_ptr<mesh::TriMesh> mesh;
  std::unique_ptr<core::KleResult> kle;
  double seconds = 0.0;
};

Build build(const Input& input, std::uint64_t lanczos_seed) {
  Build b;
  const Clock::time_point t0 = Clock::now();
  {
    obs::Span span("bench.paper_mesh");
    b.mesh = std::make_unique<mesh::TriMesh>(mesh::paper_mesh(
        geometry::BoundingBox::unit_die(), 0.001, kPaperMesherSeed));
  }
  core::KleOptions options;
  options.num_eigenpairs = input.pairs;
  options.lanczos_seed = lanczos_seed;
  {
    obs::Span span("bench.solve_kle");
    b.kle = std::make_unique<core::KleResult>(
        core::solve_kle(*b.mesh, *input.kernel, options));
  }
  b.seconds = seconds_between(t0, Clock::now());
  return b;
}

/// Output checks of one build (outside the timed region). Returns the
/// truncation r the m = 200 input selects (0 for the other inputs).
std::size_t check_build(const Input& input, const Build& b, Tally& tally) {
  obs::Span span("bench.check");
  const std::string what = std::string("kle_offline ") + input.name;
  tally.record(core::check_kle_health(*b.kle).ok(),
               what + ": check_kle_health");
  std::size_t r = 0;
  if (input.pairs == 200) {
    r = core::select_truncation(b.kle->eigenvalues(), b.kle->basis_size());
    tally.record(r == 25, what + ": select_truncation r = " +
                              std::to_string(r) + ", expected 25");
  }
  if (std::string(input.name) == "sepl1_m50") {
    const auto analytic = core::analytic_separable_kle_2d(1.0, 1.0, 6);
    for (std::size_t j = 0; j < analytic.size(); ++j) {
      const double err = std::abs(b.kle->eigenvalue(j) - analytic[j].lambda);
      tally.record(err <= 0.03 * analytic[0].lambda,
                   what + ": eigenvalue " + std::to_string(j) +
                       " off the analytic separable KLE by " +
                       std::to_string(err / analytic[0].lambda) +
                       " of lambda_0");
    }
  }
  return r;
}

}  // namespace

WorkloadResult run_kle_offline(const Args& args, Tally& tally,
                               Tracer& tracer) {
  // The seed picks the Lanczos start vectors; mesh and kernels are the
  // paper's.
  const std::uint64_t lanczos_seed = args.seed + 42;

  // Set-up: build the inputs and run one warm-up build, so the rounds
  // measure steady state (allocator arenas, code pages, SIMD dispatch).
  std::vector<Input> inputs;
  Build warm;
  std::size_t n = 0;
  WorkloadResult result;
  result.setup_s = timed_setups(
      args, tracer, 3,
      [&] {
        inputs = make_inputs();
        warm = build(inputs[0], lanczos_seed);
        check_build(inputs[0], warm, tally);
        n = warm.mesh->num_triangles();
      },
      [&] {
        warm = Build{};
        inputs.clear();
      });
  warm = Build{};

  std::size_t r = 0;  // selected for the m = 200 input
  std::vector<double> per_build;  // round time / builds per round
  std::vector<std::vector<double>> by_input(inputs.size());
  double built_seconds = 0.0;
  std::size_t builds = 0;
  const Clock::time_point window = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const double elapsed = seconds_between(window, Clock::now());
    if (k >= 2 &&
        elapsed + median(per_build) * inputs.size() > args.seconds)
      break;
    const bool traced = tracer.traces_unit(k);
    if (traced) tracer.begin(/*setup=*/false);
    double round = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      try {
        const Build b = build(inputs[i], lanczos_seed);
        round += b.seconds;
        by_input[i].push_back(b.seconds);
        ++builds;
        tally.record(true, "build");
        r = std::max(r, check_build(inputs[i], b, tally));
      } catch (const std::exception& e) {
        tally.record(false, std::string("kle_offline build ") +
                                inputs[i].name + ": " + e.what());
      }
    }
    if (traced) {
      tracer.add_ops(inputs.size());
      tracer.end();
    }
    tracer.record_unit(k, round);
    per_build.push_back(round / static_cast<double>(inputs.size()));
    built_seconds += round;
  }

  result.unit = "one cold paper-mesh KLE build (round of 4 inputs / 4)";
  result.units = per_build.size();
  result.op_ms = 1e3 * median(per_build);
  result.ops_per_s = static_cast<double>(builds) / built_seconds;

  const double nd = static_cast<double>(n);
  add_fact(result, "n", nd);
  add_fact(result, "rounds", static_cast<double>(per_build.size()));
  add_fact(result, "builds", static_cast<double>(builds));
  add_fact(result, "m_inputs", 50);
  add_fact(result, "m_gauss_m200", 200);
  add_fact(result, "r_gauss_m200", static_cast<double>(r));
  add_fact(result, "computed.assembly_kernel_evals_per_build",
           nd * (nd + 1.0) / 2.0);

  if (tracer.enabled()) {
    LayerValues& l = result.layers;
    tracer.finish();
    add_traced_layers(tracer, l);
    l["mesh.triangles"] = nd;
    l["core.assembly_evals_per_s"] =
        nd * (nd + 1.0) / 2.0 / l["core.assembly_s"];
    for (std::size_t i = 0; i < inputs.size(); ++i)
      l[std::string("kle.build_s.") + inputs[i].name] = median(by_input[i]);
  }
  return result;
}

}  // namespace perfbench
