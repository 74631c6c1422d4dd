// Workload mc_table1: the Table 1 row for c5315 (N_g = 2307).
//
// Why: it compares Algorithm 2 (KLE, r = 25) with Algorithm 1 (Cholesky)
// under one timer, as Table 1 does. STA dominates Algorithm 2 and the
// reconstruct GEMM dominates Algorithm 1, so a timing gain moves one rate
// and a field gain the other. The plain and checkpointed Algorithm 2 passes
// run the ssta runner with and without durable ledger writes; a merge of
// the two runners must keep both rates.
// Set-up builds the netlist, placement and STA engine, solves the m = 50
// Gaussian KLE on the paper mesh and factors the Cholesky covariance. A
// round then runs three passes of kSamples samples at 2 threads with
// common random numbers: Algorithm 2 plain, Algorithm 2 checkpointed (one
// ledger append per block), Algorithm 1. Measured on a 4-vCPU KVM host:
// Algorithm 2 ran 3.7-4.3k samples/s with STA ~95% of its CPU; Algorithm 1
// ran 905-928 samples/s with sampling ~78% of its CPU; Cholesky set-up
// took 2.4 s.
//
// Unit of work: one Monte Carlo sample (four parameter fields drawn plus
// one STA), over all three kinds of pass.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "circuit/synthetic.h"
#include "core/kle_solver.h"
#include "field/cholesky_sampler.h"
#include "field/kle_sampler.h"
#include "harness.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "paper_inputs.h"
#include "ssta/mc_run.h"
#include "ssta/mc_ssta.h"
#include "timing/cell_library.h"
#include "timing/sta.h"
#include "trace_fold.h"

namespace perfbench {

using namespace sckl;

PlacedCircuit place_c5315() {
  PlacedCircuit c;
  c.netlist = std::make_unique<circuit::Netlist>(
      circuit::make_paper_circuit("c5315", kCircuitSeed));
  placer::PlacerOptions options;
  options.seed = kCircuitSeed + 17;
  c.placement = std::make_unique<placer::Placement>(placer::place(
      *c.netlist, geometry::BoundingBox::unit_die(), options));
  c.gate_locations = c.placement->physical_locations(*c.netlist);
  return c;
}

namespace {

constexpr std::size_t kSamples = 2048;  // per pass: 8 blocks of 256
constexpr std::size_t kR = 25;
constexpr std::size_t kPairs = 50;
// Table 1's envelope over all circuits (paper, 100K samples).
constexpr double kMaxEMuPercent = 0.109;
constexpr double kMaxESigmaPercent = 5.7;

enum Kind { kKle = 0, kKleCkpt = 1, kChol = 2 };
constexpr int kKinds = 3;
constexpr const char* kKindName[kKinds] = {"kle", "kle_ckpt", "chol"};
constexpr const char* kKindSpan[kKinds] = {"bench.mc_kle", "bench.mc_ckpt",
                                           "bench.mc_chol"};

struct Setup {
  PlacedCircuit circuit;
  std::unique_ptr<timing::CellLibrary> library;
  std::unique_ptr<timing::StaEngine> engine;
  std::unique_ptr<kernels::GaussianKernel> kernel;
  std::unique_ptr<field::KleFieldSampler> kle;
  std::unique_ptr<field::CholeskyFieldSampler> chol;
  std::size_t n = 0;
};

Setup set_up() {
  Setup s;
  s.circuit = place_c5315();
  s.library =
      std::make_unique<timing::CellLibrary>(timing::CellLibrary::default_90nm());
  s.engine = std::make_unique<timing::StaEngine>(
      *s.circuit.netlist, *s.circuit.placement, *s.library);
  s.kernel =
      std::make_unique<kernels::GaussianKernel>(kernels::paper_gaussian_c());
  std::unique_ptr<mesh::TriMesh> mesh;
  {
    obs::Span span("bench.paper_mesh");
    mesh = std::make_unique<mesh::TriMesh>(
        mesh::paper_mesh(geometry::BoundingBox::unit_die(), 0.001,
                         kPaperMesherSeed));
  }
  s.n = mesh->num_triangles();
  core::KleOptions options;
  options.num_eigenpairs = kPairs;
  {
    obs::Span span("bench.solve_kle");
    const core::KleResult kle = core::solve_kle(*mesh, *s.kernel, options);
    s.kle = std::make_unique<field::KleFieldSampler>(kle, kR,
                                                     s.circuit.gate_locations);
  }
  {
    obs::Span span("bench.cholesky_sampler");
    s.chol = std::make_unique<field::CholeskyFieldSampler>(
        *s.kernel, s.circuit.gate_locations);
  }
  return s;
}

/// One pass of `kind`; the checkpointed pass keeps its ledger under
/// `ledger_dir` as run `run_id`.
ssta::McSstaResult run_pass(const Setup& s, Kind kind,
                            const ssta::McSstaOptions& mc,
                            const std::filesystem::path& ledger_dir,
                            const std::string& run_id) {
  const field::FieldSampler* sampler =
      kind == kChol ? static_cast<const field::FieldSampler*>(s.chol.get())
                    : s.kle.get();
  const ssta::ParameterSamplers samplers{sampler, sampler, sampler, sampler};
  obs::Span span(kKindSpan[kind]);
  if (kind != kKleCkpt) {
    // Per-sample worst delays pair Algorithm 2 with Algorithm 1 for the
    // e_mu check; the checkpointed runner cannot keep them.
    ssta::McSstaOptions plain = mc;
    plain.keep_samples = true;
    return ssta::run_monte_carlo_ssta(*s.engine, samplers, plain);
  }
  ssta::McRunOptions run;
  run.run_id = run_id;
  run.ledger_dir = ledger_dir;
  // One block per lease: the lease fold is then the block fold, which is
  // what makes the checkpointed statistics equal the plain ones bit for bit.
  run.lease_blocks = 1;
  run.workload_key = mc.seed;
  return ssta::run_checkpointed_monte_carlo_ssta(*s.engine, samplers, mc, run);
}

bool same_statistics(const ssta::McSstaResult& a,
                     const ssta::McSstaResult& b) {
  if (!a.worst_delay.state_equals(b.worst_delay) ||
      !a.worst_delay_sketch.state_equals(b.worst_delay_sketch) ||
      a.endpoint.size() != b.endpoint.size())
    return false;
  for (std::size_t e = 0; e < a.endpoint.size(); ++e)
    if (!a.endpoint[e].state_equals(b.endpoint[e])) return false;
  return true;
}

}  // namespace

WorkloadResult run_mc_table1(const Args& args, Tally& tally, Tracer& tracer) {
  std::unique_ptr<Setup> setup;
  WorkloadResult result;
  result.setup_s = timed_setups(
      args, tracer, 3, [&] { setup = std::make_unique<Setup>(set_up()); },
      [&] { setup.reset(); });
  const Setup& s = *setup;
  const std::filesystem::path ledger_dir =
      std::filesystem::path(run_dir()) / "mc_runs";
  const double ng = static_cast<double>(s.circuit.gate_locations.size());

  ssta::McSstaOptions mc;
  mc.num_samples = kSamples;
  mc.num_threads = kThreads;

  std::vector<double> per_sample;  // round wall / samples in the round
  std::vector<double> pass_wall[kKinds];
  double sampling_cpu[kKinds] = {0.0, 0.0, 0.0};
  double sta_cpu[kKinds] = {0.0, 0.0, 0.0};
  std::size_t traced_chol_samples = 0;
  RunningStats merged[kKinds];
  RunningStats paired;  // Algorithm 2 minus Algorithm 1, sample by sample
  const Clock::time_point window = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const double elapsed = seconds_between(window, Clock::now());
    if (k >= 2 &&
        elapsed + median(per_sample) * kKinds * kSamples > args.seconds)
      break;
    const bool traced = tracer.traces_unit(k);
    if (traced) tracer.begin(/*setup=*/false);
    // Fresh samples every round; the three passes of a round share them.
    mc.seed = args.seed * 1000003ull + 1000 + k;
    const std::string run_id = "round-" + std::to_string(k);
    ssta::McSstaResult out[kKinds];
    bool ok[kKinds] = {false, false, false};
    double round = 0.0;
    for (int kind = 0; kind < kKinds; ++kind) {
      const Clock::time_point t0 = Clock::now();
      try {
        out[kind] = run_pass(s, static_cast<Kind>(kind), mc, ledger_dir,
                             run_id);
        ok[kind] = true;
      } catch (const std::exception& e) {
        tally.record(false, std::string("mc_table1 ") + kKindName[kind] +
                                " pass: " + e.what());
        continue;
      }
      const double wall = seconds_between(t0, Clock::now());
      tally.record(true, "pass");
      round += wall;
      pass_wall[kind].push_back(wall);
      sampling_cpu[kind] += out[kind].sampling_seconds;
      sta_cpu[kind] += out[kind].sta_seconds;
      merged[kind].merge(out[kind].worst_delay);
    }
    if (traced) {
      tracer.add_ops(kKinds * kSamples);
      traced_chol_samples += kSamples;
      tracer.end();
    }
    tracer.record_unit(k, round);
    per_sample.push_back(round / static_cast<double>(kKinds * kSamples));
    if (ok[kKle] && ok[kChol])
      for (std::size_t i = 0; i < kSamples; ++i)
        paired.add(out[kKle].worst_delay_samples[i] -
                   out[kChol].worst_delay_samples[i]);
    if (ok[kKle] && ok[kKleCkpt])
      tally.record(same_statistics(out[kKle], out[kKleCkpt]),
                   "mc_table1: checkpointed Algorithm 2 statistics differ "
                   "from the plain run in round " + std::to_string(k));
    std::error_code ignored;
    std::filesystem::remove_all(ledger_dir, ignored);
  }

  // Table 1's accuracy columns over every sample of the run. The paper's
  // envelope holds at 100K samples; at this run's sample count e_mu also
  // carries the Monte Carlo error of the paired (common random numbers)
  // difference, so its limit adds three standard errors of that mean.
  const double mu_mc = merged[kChol].mean();
  const double e_mu = 100.0 * std::abs(merged[kKle].mean() - mu_mc) / mu_mc;
  const double e_mu_se =
      100.0 * paired.stddev() /
      std::sqrt(static_cast<double>(std::max<std::size_t>(paired.count(), 1))) /
      mu_mc;
  const double e_mu_limit = kMaxEMuPercent + 3.0 * e_mu_se;
  const double e_sigma = 100.0 *
                         std::abs(merged[kKle].stddev() -
                                  merged[kChol].stddev()) /
                         merged[kChol].stddev();
  tally.record(e_mu <= e_mu_limit,
               "mc_table1: e_mu = " + json_number(e_mu) + "% above " +
                   json_number(kMaxEMuPercent) + "% + 3 x " +
                   json_number(e_mu_se) + "% standard error");
  tally.record(e_sigma <= kMaxESigmaPercent,
               "mc_table1: e_sigma = " + json_number(e_sigma) + "% above " +
                   json_number(kMaxESigmaPercent) + "%");

  double samples = 0.0;
  double wall = 0.0;
  for (int kind = 0; kind < kKinds; ++kind) {
    samples += static_cast<double>(pass_wall[kind].size() * kSamples);
    for (const double w : pass_wall[kind]) wall += w;
  }
  result.unit = "one Monte Carlo sample (4 parameter draws + 1 STA), over "
                "Algorithm 2 plain, Algorithm 2 checkpointed and Algorithm 1";
  result.units = per_sample.size();
  result.op_ms = 1e3 * median(per_sample);
  result.ops_per_s = samples / wall;
  add_fact(result, "N_g", ng);
  add_fact(result, "n", static_cast<double>(s.n));
  add_fact(result, "m", kPairs);
  add_fact(result, "r", kR);
  add_fact(result, "samples_per_pass", kSamples);
  add_fact(result, "rounds", static_cast<double>(per_sample.size()));
  add_fact(result, "samples", samples);
  add_fact(result, "e_mu_pct", e_mu);
  add_fact(result, "e_mu_standard_error_pct", e_mu_se);
  add_fact(result, "e_sigma_pct", e_sigma);
  for (int kind = 0; kind < kKinds; ++kind)
    add_fact(result, std::string("samples_per_s.") + kKindName[kind],
             kSamples / median(pass_wall[kind]));
  add_fact(result, "computed.assembly_kernel_evals",
           static_cast<double>(s.n) * (static_cast<double>(s.n) + 1.0) / 2.0);
  add_fact(result, "computed.cholesky_flops", ng * ng * ng / 3.0);
  add_fact(result, "computed.chol_reconstruct_flops_per_sample",
           8.0 * ng * ng);

  if (tracer.enabled()) {
    // The single-thread baseline: one 1-thread pass of each kind.
    double one_thread = 0.0;
    double two_threads = 0.0;
    ssta::McSstaOptions serial = mc;
    serial.num_threads = 1;
    serial.seed = args.seed * 1000003ull + 999;
    for (int kind = 0; kind < kKinds; ++kind) {
      const Clock::time_point t0 = Clock::now();
      run_pass(s, static_cast<Kind>(kind), serial, ledger_dir, "serial");
      one_thread += seconds_between(t0, Clock::now());
      two_threads += median(pass_wall[kind]);
    }
    std::error_code ignored;
    std::filesystem::remove_all(ledger_dir, ignored);

    tracer.finish();
    LayerValues& l = result.layers;
    add_traced_layers(tracer, l);
    const SpanFold units = fold_spans(tracer.unit_spans());
    const auto span_cpu = [&](const char* name) {
      const auto it = units.find(name);
      return it == units.end() ? 0.0 : it->second.cpu_s;
    };
    const double kle_samples = static_cast<double>(
        (pass_wall[kKle].size() + pass_wall[kKleCkpt].size()) * kSamples);
    const double chol_samples =
        static_cast<double>(pass_wall[kChol].size() * kSamples);
    l["mesh.triangles"] = static_cast<double>(s.n);
    l["core.assembly_evals_per_s"] = static_cast<double>(s.n) *
                                     (static_cast<double>(s.n) + 1.0) / 2.0 /
                                     l["core.assembly_s"];
    l["linalg.cholesky_gflops"] = ng * ng * ng / 3.0 / l["linalg.cholesky_s"] * 1e-9;
    l["field.sampling_cpu_s.kle"] =
        (sampling_cpu[kKle] + sampling_cpu[kKleCkpt]) / kle_samples;
    l["field.sampling_cpu_s.chol"] = sampling_cpu[kChol] / chol_samples;
    l["field.reconstruct_gflops.chol"] =
        8.0 * ng * ng * static_cast<double>(traced_chol_samples) /
        span_cpu("field.reconstruct.cholesky") * 1e-9;
    l["timing.sta_cpu_s.kle"] = (sta_cpu[kKle] + sta_cpu[kKleCkpt]) / kle_samples;
    l["timing.sta_cpu_s.chol"] = sta_cpu[kChol] / chol_samples;
    l["timing.sta_ns_per_gate"] =
        1e9 * (sta_cpu[kKle] + sta_cpu[kKleCkpt] + sta_cpu[kChol]) /
        (samples * ng);
    double busy = 0.0;
    for (int kind = 0; kind < kKinds; ++kind)
      busy += sampling_cpu[kind] + sta_cpu[kind];
    l["ssta.mc.parallel_eff"] = busy / (static_cast<double>(kThreads) * wall);
    l["ssta.mc.speedup_2v1"] = one_thread / two_threads;
    const auto& reg = tracer.unit_registry();
    const auto steal_count = reg.find("sckl.ssta.mc.steal_ns.count");
    const auto steal_sum = reg.find("sckl.ssta.mc.steal_ns.sum");
    if (steal_count != reg.end() && steal_sum != reg.end() &&
        steal_count->second > 0)
      l["ssta.mc.claim_wait_ns"] = steal_sum->second / steal_count->second;
    for (int kind = 0; kind < kKinds; ++kind)
      l[std::string("mc.") + kKindName[kind] + "_samples_per_s"] =
          kSamples / median(pass_wall[kind]);
  }
  return result;
}

}  // namespace perfbench
