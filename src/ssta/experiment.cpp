#include "ssta/experiment.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "circuit/synthetic.h"
#include "common/error.h"
#include "common/statistics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "field/cholesky_sampler.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "store/key_hash.h"

namespace sckl::ssta {

double ExperimentResult::mean_endpoint_sigma_error() const {
  if (endpoint_sigma_error.empty()) return 0.0;
  return mean_of(endpoint_sigma_error);
}

void add_experiment_flags(const CliFlags& flags, ExperimentConfig& config) {
  ExperimentFlagSet set;
  set.circuit = config.circuit;
  set.num_samples = config.num_samples;
  set.r = config.r;
  set.seed = config.seed;
  set.num_threads = config.num_threads;
  set.block_samples = config.mc_block_size;
  set.store_root = config.store_root;
  set.validate = config.validate_kle;
  set.strict = config.strict;
  set.run_id = config.run_id;
  set.resume = config.resume;
  set.matrix_free = config.matrix_free;
  set.aca_tol = config.aca_tolerance;
  set.apply(flags);
  config.circuit = set.circuit;
  config.num_samples = set.num_samples;
  config.r = set.r;
  config.seed = set.seed;
  config.num_threads = set.num_threads;
  config.mc_block_size = set.block_samples;
  config.store_root = set.store_root;
  config.validate_kle = set.validate;
  config.strict = set.strict;
  config.run_id = set.run_id;
  config.resume = set.resume;
  config.matrix_free = set.matrix_free;
  config.aca_tolerance = set.aca_tol;
}

std::size_t num_eigenpairs_for(std::size_t r, std::size_t requested) {
  return requested != 0 ? requested : std::max<std::size_t>(2 * r, 50);
}

robust::HealthReport fold_kle_health(const KleRunInfo& info) {
  robust::HealthReport report = info.health;
  if (info.solve.fallback)
    report.add(robust::Severity::kWarning, "solver_fallback",
               info.solve.fallback_reason);
  if (info.out_of_mesh_gates > 0)
    report.add(robust::Severity::kWarning, "out_of_mesh",
               std::to_string(info.out_of_mesh_gates) +
                   " gate(s) resolved to the nearest mesh triangle");
  return report;
}

ExperimentPipeline::ExperimentPipeline(const ExperimentConfig& config)
    : config_(config) {
  obs::Span span("ssta.pipeline_build");
  netlist_ = std::make_unique<circuit::Netlist>(
      circuit::make_paper_circuit(config.circuit, config.seed));
  placer::PlacerOptions placer_options;
  placer_options.seed = config.seed + 17;
  placement_ = std::make_unique<placer::Placement>(placer::place(
      *netlist_, geometry::BoundingBox::unit_die(), placer_options));
  library_ =
      std::make_unique<timing::CellLibrary>(timing::CellLibrary::default_90nm());
  engine_ =
      std::make_unique<timing::StaEngine>(*netlist_, *placement_, *library_);
  locations_ = placement_->physical_locations(*netlist_);

  const double c = config.kernel_c > 0.0 ? config.kernel_c
                                         : kernels::paper_gaussian_c();
  kernel_ = std::make_unique<kernels::GaussianKernel>(c);
}

McSstaOptions ExperimentPipeline::mc_options() const {
  McSstaOptions options;
  options.num_samples = config_.num_samples;
  // Same base seed for reference and KLE runs: the samplers map their
  // latent draws through different bases, and sharing draws (common random
  // numbers) tightens the e_mu / e_sigma comparison.
  options.seed = config_.seed + 1000;
  options.num_threads = config_.num_threads;
  options.lease_ttl_ms = config_.lease_ttl_ms;
  if (config_.mc_block_size > 0) options.block_size = config_.mc_block_size;
  return options;
}

const McSstaResult& ExperimentPipeline::reference() {
  if (!reference_) {
    obs::Span span("ssta.reference");
    obs::Stopwatch setup;
    const field::CholeskyFieldSampler sampler(*kernel_, locations_);
    reference_setup_seconds_ = setup.seconds();
    const ParameterSamplers samplers{&sampler, &sampler, &sampler, &sampler};
    reference_ = std::make_unique<McSstaResult>(
        run_monte_carlo_ssta(*engine_, samplers, mc_options()));
  }
  return *reference_;
}

double ExperimentPipeline::reference_setup_seconds() {
  reference();
  return reference_setup_seconds_;
}

store::KleArtifactConfig ExperimentPipeline::artifact_config(
    std::size_t num_eigenpairs) const {
  store::KleArtifactConfig config;
  store::describe_kernel(*kernel_, config.kernel_id, config.kernel_params);
  config.die = geometry::BoundingBox::unit_die();
  config.mesh.kind = store::MeshSpec::Kind::kPaperRefined;
  config.mesh.area_fraction = config_.mesh_area_fraction;
  config.mesh.mesher_seed = config_.seed + 7;
  config.quadrature = core::QuadratureRule::kCentroid1;
  config.num_eigenpairs = num_eigenpairs;
  return config;
}

KleRunOutcome ExperimentPipeline::run_kle(const KleRunRequest& request) {
  require((request.mesh != nullptr) != (request.store != nullptr),
          "ExperimentPipeline::run_kle: set exactly one of mesh / store");
  // Checked before the KLE solve: the ledger lives under the store root.
  require(request.run_id.empty() || request.store != nullptr,
          "ExperimentPipeline::run_kle: a checkpointed run (run_id) needs "
          "the artifact-store path — the ledger lives under the store root");
  KleRunOutcome outcome;
  outcome.from_store = request.store != nullptr;

  obs::Span span("ssta.run_kle");
  obs::Stopwatch setup;
  auto setup_span = std::make_unique<obs::Span>("ssta.kle_setup");
  // Both provenances yield one result; it is released once the sampler
  // has copied what it needs, before the Monte Carlo run.
  std::shared_ptr<const core::KleResult> kle;
  if (request.store != nullptr) {
    store::FetchResult fetch = request.store->get_or_compute(
        artifact_config(request.num_eigenpairs), *kernel_);
    kle = std::move(fetch.artifact);
    outcome.source = fetch.source;
  } else {
    core::KleOptions kle_options;
    kle_options.num_eigenpairs = std::min<std::size_t>(
        request.num_eigenpairs, request.mesh->num_triangles());
    if (config_.matrix_free) {
      kle_options.operator_mode = core::OperatorMode::kMatrixFree;
      if (config_.aca_tolerance > 0.0)
        kle_options.matfree.aca_tolerance = config_.aca_tolerance;
      kle_options.matfree.num_threads = config_.num_threads;
    }
    kle = std::make_shared<const core::KleResult>(core::solve_kle(
        *request.mesh, *kernel_, kle_options, &outcome.info.solve));
  }
  const auto sampler =
      std::make_unique<field::KleFieldSampler>(*kle, request.r, locations_);
  outcome.mesh_triangles = kle->basis_size();
  if (config_.validate_kle || config_.strict) {
    outcome.info.validated = true;
    outcome.info.health = core::check_kle_health(*kle);
  }
  kle.reset();
  setup_span.reset();
  outcome.setup_seconds = setup.seconds();
  outcome.info.out_of_mesh_gates = sampler->out_of_mesh_count();

  const ParameterSamplers samplers{sampler.get(), sampler.get(),
                                   sampler.get(), sampler.get()};
  McSstaOptions options = mc_options();
  options.cancelled = request.cancelled;
  if (request.run_id.empty()) {
    outcome.ssta = run_monte_carlo_ssta(*engine_, samplers, options);
    return outcome;
  }

  // Checkpointed path: the run ledger lives next to the artifacts it
  // depends on, under <store root>/mc_runs. The workload key binds the
  // ledger to everything that determines a sample's value, so a resume
  // against a different circuit/kernel/KLE rejects instead of silently
  // folding foreign partials into the statistics.
  store::ContentHasher h;
  h.update_string("sckl-mc-workload-v1");
  h.update_string(config_.circuit);
  h.update_u64(config_.seed);
  h.update_u64(request.r);
  h.update_u64(request.num_eigenpairs);
  h.update_double(config_.mesh_area_fraction);
  h.update_double(config_.kernel_c);

  McRunOptions run;
  run.run_id = request.run_id;
  run.resume = request.resume;
  run.ledger_dir = request.store->root() / "mc_runs";
  run.workload_key = h.digest();
  if (config_.mc_lease_blocks > 0) run.lease_blocks = config_.mc_lease_blocks;
  run.share_coordinator = request.share_coordinator;
  outcome.checkpointed = true;
  outcome.ssta = run_checkpointed_monte_carlo_ssta(*engine_, samplers, options,
                                                   run, &outcome.mc_run);
  return outcome;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  ExperimentPipeline pipeline(config);

  ExperimentResult result;
  result.circuit = config.circuit;
  result.num_gates = pipeline.num_gates();
  result.r = config.r;

  const McSstaResult& mc = pipeline.reference();
  result.threads_used = mc.threads_used;
  result.mc_setup_seconds = pipeline.reference_setup_seconds();
  result.mc_run_seconds = mc.sampling_seconds + mc.sta_seconds;
  result.mc_mean = mc.worst_delay.mean();
  result.mc_sigma = mc.worst_delay.stddev();

  KleRunRequest request;
  request.r = config.r;
  request.num_eigenpairs = num_eigenpairs_for(config.r, config.num_eigenpairs);
  request.run_id = config.run_id;
  request.resume = config.resume;

  std::unique_ptr<store::KleArtifactStore> store;
  std::unique_ptr<mesh::TriMesh> mesh;
  if (!config.store_root.empty()) {
    store = std::make_unique<store::KleArtifactStore>(config.store_root);
    request.store = store.get();
  } else {
    mesh = std::make_unique<mesh::TriMesh>(
        mesh::paper_mesh(geometry::BoundingBox::unit_die(),
                         config.mesh_area_fraction, config.seed + 7));
    request.mesh = mesh.get();
  }

  KleRunOutcome outcome = pipeline.run_kle(request);
  result.mesh_triangles = outcome.mesh_triangles;
  if (outcome.from_store) result.kle_source = store::to_string(outcome.source);
  result.kle_setup_seconds = outcome.setup_seconds;
  result.out_of_mesh_gates = outcome.info.out_of_mesh_gates;
  if (outcome.info.solve.fallback)
    result.kle_fallback_reason = outcome.info.solve.fallback_reason;
  if (outcome.info.validated) {
    const robust::HealthReport report = fold_kle_health(outcome.info);
    result.health_ok = report.ok();
    result.health_summary = report.to_string();
    if (config.strict) report.throw_if_fatal(robust::Severity::kWarning);
  }
  const McSstaResult& kle = outcome.ssta;
  result.kle_run_seconds = kle.sampling_seconds + kle.sta_seconds;
  result.kle_mean = kle.worst_delay.mean();
  result.kle_sigma = kle.worst_delay.stddev();

  result.e_mu_percent =
      100.0 * std::abs(result.kle_mean - result.mc_mean) / result.mc_mean;
  result.e_sigma_percent =
      100.0 * std::abs(result.kle_sigma - result.mc_sigma) / result.mc_sigma;
  result.speedup = result.mc_run_seconds / std::max(result.kle_run_seconds,
                                                    1e-9);

  result.endpoint_sigma_error.reserve(mc.endpoint.size());
  for (std::size_t e = 0; e < mc.endpoint.size(); ++e) {
    const double reference_sigma = mc.endpoint[e].stddev();
    if (reference_sigma <= 0.0) continue;
    result.endpoint_sigma_error.push_back(
        std::abs(kle.endpoint[e].stddev() - reference_sigma) /
        reference_sigma);
  }
  return result;
}

}  // namespace sckl::ssta
