// Full SSTA flow on a benchmark circuit — the paper's Sec. 5 pipeline as a
// user would run it:
//   netlist -> recursive min-cut placement -> STA engine
//   kernel -> mesh -> KLE -> reduced sampler
//   Monte Carlo SSTA with Algorithm 1 (reference) and Algorithm 2 (KLE),
//   then a side-by-side report.
//
// With --store=DIR the solved KLE is fetched through the artifact store
// (kle_store_tool's repository format): the first run pays the eigensolve
// and persists it, later runs load the artifact from disk in milliseconds —
// the paper's offline-decompose / online-sample split.
//
// --validate runs core::check_kle_health on the KLE and prints the report;
// --strict additionally escalates warnings (solver fallback, out-of-mesh
// gates, health findings) to a non-zero exit instead of recovering silently.
//
// SCKL_TRACE=1 (or --trace) prints a span tree + metrics table on stderr at
// exit; --trace-json=PATH additionally writes the sckl-trace-v1 JSON.
//
// --run-id=NAME (with --store) runs the KLE-side Monte Carlo through the
// checkpointed runner: completed leases are persisted to the run ledger
// under <store>/mc_runs, so a killed run loses at most one lease of work.
// Re-running with the same --run-id plus --resume loads the completed
// leases and recomputes only the rest — the final statistics are
// bit-identical to an uninterrupted run.
//
// Usage: ./examples/ssta_flow [--circuit=c880] [--samples=1000] [--r=25]
//                             [--seed=1] [--threads=K]
//                             [--store=/path/to/repo] [--fsck]
//                             [--run-id=NAME] [--resume]
//                             [--validate] [--strict]
//                             [--trace] [--trace-json=PATH]
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/cli.h"
#include "mesh/refine.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "placer/wireload.h"
#include "ssta/experiment.h"
#include "store/artifact_store.h"
#include "timing/critical_path.h"

namespace {

int run(const sckl::CliFlags& flags) {
  using namespace sckl;
  obs::Span root("ssta_flow");
  ssta::ExperimentConfig config;
  config.circuit = "c880";
  // Sigma-vs-sigma comparisons have a ~1/sqrt(N) noise floor; 1000 samples
  // put it at ~3%.
  config.num_samples = 1000;
  ssta::add_experiment_flags(flags, config);
  const bool validate = config.validate_kle || config.strict;

  ssta::ExperimentPipeline pipeline(config);
  const timing::StaEngine& engine = pipeline.engine();
  const circuit::Netlist& netlist = engine.netlist();
  std::printf("circuit %s: %zu gates, depth %zu, %zu endpoints, HPWL %.1f\n",
              config.circuit.c_str(), netlist.num_physical_gates(),
              engine.depth(), engine.num_endpoints(),
              placer::total_hpwl(netlist, pipeline.placement()));
  timing::StaTrace trace;
  const auto [nominal, critical] = [&] {
    obs::Span nominal_span("ssta_flow.nominal_sta");
    const timing::StaResult result = engine.run_nominal(&trace);
    return std::make_pair(result,
                          timing::extract_critical_path(engine, result, trace));
  }();
  std::printf("nominal worst delay: %.1f ps\n", nominal.worst_delay);
  std::printf("nominal critical path: %zu stages from '%s'\n\n",
              critical.steps.size(),
              netlist.gate(critical.steps.front().gate).name.c_str());

  // Algorithm 2 run: fresh KLE solve, or fetch through the artifact store.
  // --fsck first runs the crash-recovery pass over the repository, reaping
  // debris a previously killed writer may have left.
  ssta::KleRunRequest request;
  request.r = config.r;
  request.num_eigenpairs =
      ssta::num_eigenpairs_for(config.r, config.num_eigenpairs);
  request.validate = validate;
  request.run_id = config.run_id;
  request.resume = config.resume;
  request.matrix_free = config.matrix_free;
  request.aca_tolerance = config.aca_tolerance;
  std::unique_ptr<store::KleArtifactStore> store;
  std::unique_ptr<mesh::TriMesh> owned_mesh;
  if (!config.store_root.empty()) {
    store::StoreOptions store_options;
    store_options.fsck_on_open = flags.get_bool("fsck", false);
    store = std::make_unique<store::KleArtifactStore>(config.store_root,
                                                      store_options);
    request.store = store.get();
  } else {
    owned_mesh = std::make_unique<mesh::TriMesh>(
        mesh::paper_mesh(geometry::BoundingBox::unit_die(),
                         config.mesh_area_fraction, config.seed + 7));
    request.mesh = owned_mesh.get();
  }
  const ssta::KleRunOutcome outcome = pipeline.run_kle(request);
  if (outcome.from_store) {
    std::printf("KLE artifact: source=%s fetch=%.3fs (%s)\n",
                to_string(outcome.source), outcome.setup_seconds,
                to_string(store->cache_stats()).c_str());
    const store::StoreHealth store_health = store->health();
    if (store_health.total() > 0)
      std::printf("store faults: %s\n", to_string(store_health).c_str());
  } else {
    std::printf("KLE solved fresh in %.3fs (pass --store=DIR to persist)\n",
                outcome.setup_seconds);
  }
  if (outcome.info.solve.fallback)
    std::printf("KLE solver fallback: %s\n",
                outcome.info.solve.fallback_reason.c_str());
  if (outcome.info.out_of_mesh_gates > 0)
    std::printf("out-of-mesh gates: %zu resolved to the nearest triangle\n",
                outcome.info.out_of_mesh_gates);
  if (validate) {
    const robust::HealthReport health = ssta::fold_kle_health(outcome.info);
    std::printf("KLE health (worst: %s):\n%s", to_string(health.worst()),
                health.to_string().c_str());
    if (config.strict) health.throw_if_fatal(robust::Severity::kWarning);
  }
  if (outcome.checkpointed) {
    const ssta::McRunStats& cp = outcome.mc_run;
    std::printf("checkpointed run '%s': %zu lease(s) — %zu resumed from the "
                "ledger, %zu computed (%zu expired, %zu recomputed), "
                "%zu ledger append(s)%s\n",
                config.run_id.c_str(), cp.leases_total, cp.leases_resumed,
                cp.leases_claimed, cp.leases_expired, cp.leases_recomputed,
                cp.ledger_appends,
                cp.recovered_torn_tail ? " [torn tail recovered]" : "");
  }
  std::printf("samplers: Algorithm 1 latent dim %zu | Algorithm 2 latent "
              "dim %zu (n = %zu triangles)\n\n",
              pipeline.num_gates(), config.r, outcome.mesh_triangles);

  // Both runs shared the same engine and timer; the reference (Algorithm 1)
  // is computed on demand and cached by the pipeline.
  const ssta::McSstaResult& mc = pipeline.reference();
  const ssta::McSstaResult& kl = outcome.ssta;
  std::printf("Monte Carlo: %zu samples on %zu thread(s)\n", config.num_samples,
              kl.threads_used);
  std::printf("%-28s %14s %14s\n", "", "Algorithm 1", "Algorithm 2 (KLE)");
  std::printf("%-28s %14.2f %14.2f\n", "worst delay mean (ps)",
              mc.worst_delay.mean(), kl.worst_delay.mean());
  std::printf("%-28s %14.3f %14.3f\n", "worst delay sigma (ps)",
              mc.worst_delay.stddev(), kl.worst_delay.stddev());
  // Phase times are thread CPU seconds summed over the workers.
  std::printf("%-28s %14.3f %14.3f\n", "sampling CPU time (s)",
              mc.sampling_seconds, kl.sampling_seconds);
  std::printf("%-28s %14.3f %14.3f\n", "STA CPU time (s)", mc.sta_seconds,
              kl.sta_seconds);
  // Full-distribution view from the mergeable quantile sketch: the tail the
  // two-moment summary cannot show (exact while samples <= sketch capacity).
  const struct { const char* label; double q; } kQuantiles[] = {
      {"worst delay p50 (ps)", 0.5},
      {"worst delay p95 (ps)", 0.95},
      {"worst delay p99 (ps)", 0.99},
      {"worst delay p99.9 (ps)", 0.999},
  };
  for (const auto& row : kQuantiles)
    std::printf("%-28s %14.2f %14.2f\n", row.label,
                mc.worst_delay_sketch.quantile(row.q),
                kl.worst_delay_sketch.quantile(row.q));
  const double e_mu = 100.0 *
                      std::abs(kl.worst_delay.mean() - mc.worst_delay.mean()) /
                      mc.worst_delay.mean();
  const double e_sigma =
      100.0 *
      std::abs(kl.worst_delay.stddev() - mc.worst_delay.stddev()) /
      mc.worst_delay.stddev();
  std::printf("\ne_mu = %.3f%%   e_sigma = %.3f%%   sampling speedup = %.2fx\n",
              e_mu, e_sigma,
              mc.sampling_seconds / std::max(kl.sampling_seconds, 1e-9));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const sckl::CliFlags flags(argc, argv);
  return sckl::obs::run_tool("ssta_flow", flags, [&] { return run(flags); });
}
