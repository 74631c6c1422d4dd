// End-to-end paper experiments: Table 1 rows and Fig. 6 sweeps.
//
// One call builds the whole pipeline for a circuit: synthesize/parse the
// netlist, place it on the normalized die, build the Gaussian kernel with
// the paper's 2-D linear-cone fit, mesh the die, solve the KLE, construct
// both samplers (Algorithm 1 reference, Algorithm 2 reduced), run the two
// Monte Carlo SSTAs with the *same* timer, and report the Table 1 metrics:
//   e_mu    = |mu_KLE - mu_MC| / mu_MC            (percent)
//   e_sigma = |sigma_KLE - sigma_MC| / sigma_MC   (percent)
//   speedup = t_MC / t_KLE                        (sampling + STA)
// plus the per-endpoint sigma errors that Fig. 6 averages over outputs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/kle_health.h"
#include "core/kle_solver.h"
#include "ssta/mc_run.h"
#include "ssta/mc_ssta.h"
#include "store/artifact_store.h"

namespace sckl::ssta {

/// Configuration of one circuit experiment.
struct ExperimentConfig {
  std::string circuit = "c1908";   // paper circuit name
  std::size_t num_samples = 1000;  // per SSTA run (paper used 100K)
  std::size_t r = 25;              // KLE truncation (paper's choice)
  std::size_t num_eigenpairs = 0;  // pairs m; 0 = num_eigenpairs_for(r)
  double mesh_area_fraction = 0.001;  // paper: max area 0.1% of the die
  double kernel_c = 0.0;           // Gaussian decay; 0 = the paper's 2-D fit
  std::uint64_t seed = 1;

  /// Worker threads for the Monte Carlo runner: 0 = auto (the SCKL_THREADS
  /// environment variable when set, else hardware concurrency), 1 =
  /// serial, k = exactly k workers. Results are bit-identical for every
  /// value (see ssta/mc_ssta.h).
  std::size_t num_threads = 0;

  /// When non-empty, the KLE is fetched through a KleArtifactStore rooted
  /// here (memory -> disk -> solve) instead of always solving fresh, and
  /// kle_setup_seconds becomes the fetch time. Repeated runs on the same
  /// root skip the eigensolve entirely (the paper's offline/online split).
  std::string store_root;

  /// Run core::check_kle_health on the KLE and report it in the result.
  bool validate_kle = false;
  /// Escalate resilience warnings (solver fallback, out-of-mesh gates,
  /// health findings of kWarning or worse) to a thrown sckl::Error instead
  /// of silently recovering. Implies validate_kle.
  bool strict = false;

  /// Non-empty: the KLE-side Monte Carlo uses the checkpointed runner
  /// (ssta/mc_run.h), keeping a durable run ledger under
  /// <store_root>/mc_runs/<run_id>.ledger. Requires store_root.
  std::string run_id;
  /// Continue a ledger that already holds completed leases (a killed or
  /// cancelled earlier run) instead of rejecting it.
  bool resume = false;

  /// Lease time-to-live for remote workers of a distributed run (the serve
  /// daemon's --lease-ttl). A remote claim not completed or
  /// heartbeat-extended within this budget is reclaimed and recomputed
  /// deterministically; local claims never time out.
  std::uint64_t lease_ttl_ms = 300'000;
  /// Checkpointing geometry: samples per block and blocks per lease for
  /// the checkpointed runner (0 = keep the McSstaOptions/McRunOptions
  /// defaults, 256 and 4). Both are part of the ledger header, so they
  /// must match across resumes.
  std::size_t mc_block_size = 0;
  std::size_t mc_lease_blocks = 0;

  /// Solve the KLE matrix-free (--matrix-free): Lanczos on the hierarchical
  /// ACA-compressed operator rather than the assembled dense matrix. Only
  /// affects the fresh-solve path (store fetches reuse whatever the artifact
  /// was solved with). See core::OperatorMode::kMatrixFree.
  bool matrix_free = false;
  /// Relative ACA block tolerance when matrix_free is set (--aca-tol);
  /// 0 = the linalg::HmatOptions default.
  double aca_tolerance = 0.0;
};

/// Maps the shared command-line flag vocabulary (sckl::ExperimentFlagSet,
/// parsed in common/cli) onto an ExperimentConfig. Lives in the ssta layer
/// because common cannot depend on ssta types. Fields without a flag
/// (mesh_area_fraction, kernel_c, ...) keep the values already in `config`.
void add_experiment_flags(const CliFlags& flags, ExperimentConfig& config);

/// The number m of KLE eigenpairs a run computes for truncation r:
/// `requested` when nonzero, else the default max(2r, 50). Every run that
/// leaves m unset (pipeline, daemon, tools, benches) resolves it here.
std::size_t num_eigenpairs_for(std::size_t r, std::size_t requested = 0);

/// Everything the benches report about one circuit.
struct ExperimentResult {
  std::string circuit;
  std::size_t num_gates = 0;   // N_g
  std::size_t mesh_triangles = 0;  // n
  std::size_t r = 0;
  std::size_t threads_used = 0;  // resolved Monte Carlo worker count

  double mc_mean = 0.0;
  double mc_sigma = 0.0;
  double kle_mean = 0.0;
  double kle_sigma = 0.0;
  double e_mu_percent = 0.0;
  double e_sigma_percent = 0.0;
  double speedup = 0.0;  // (sampling+STA) CPU time ratio MC / KLE

  double mc_setup_seconds = 0.0;   // Cholesky factorization
  double kle_setup_seconds = 0.0;  // KLE solve — or store fetch — time
  std::string kle_source;          // "", or store provenance: solved/disk/memory
  double mc_run_seconds = 0.0;   // sampling + STA, thread CPU seconds
  double kle_run_seconds = 0.0;  //   summed across workers

  /// Resilience telemetry: non-empty when the Lanczos -> dense fallback
  /// fired during the KLE solve.
  std::string kle_fallback_reason;
  /// Gates outside every mesh triangle, resolved to the nearest one.
  std::size_t out_of_mesh_gates = 0;
  /// Health validation (filled when validate_kle/strict was set).
  bool health_ok = true;
  std::string health_summary;

  /// Per-endpoint sigma relative errors (fraction, not percent), for the
  /// Fig. 6 "error averaged across all outputs" metric.
  std::vector<double> endpoint_sigma_error;

  /// Mean of endpoint_sigma_error (the Fig. 6 y-axis).
  double mean_endpoint_sigma_error() const;
};

/// Runs the full comparison for one circuit. With config.strict set, throws
/// sckl::Error (code kHealthCheckFailed) when the KLE needed a fallback or
/// fails health validation instead of recovering silently.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Resilience telemetry of one pipeline KLE run.
struct KleRunInfo {
  core::KleSolveInfo solve;            // fresh-solve path only
  std::size_t out_of_mesh_gates = 0;   // gates resolved to nearest triangle
  bool validated = false;              // health report below was computed
  robust::HealthReport health;
};

/// Folds the pipeline-level recoveries of one KLE run (solver fallback,
/// out-of-mesh gates) into its health report, so one artifact carries the
/// whole resilience story and strict mode can escalate all of it at once.
robust::HealthReport fold_kle_health(const KleRunInfo& info);

/// What to run for one Algorithm 2 (reduced-dimension) SSTA pass: what may
/// vary between passes on one pipeline. Exactly one KLE provenance must be
/// set: a mesh to solve fresh on, or an artifact store to fetch through
/// (solving only on a cold miss). The solve settings (matrix_free,
/// aca_tolerance) and health validation (validate_kle or strict) come from
/// the pipeline's ExperimentConfig.
struct KleRunRequest {
  std::size_t r = 25;              // KLE truncation
  std::size_t num_eigenpairs = 50; // computed pairs m (clamped to the mesh)
  /// Fresh-solve path: read only during run_kle (the result keeps a copy).
  const mesh::TriMesh* mesh = nullptr;
  store::KleArtifactStore* store = nullptr;  // store-fetch path
  /// Forwarded to McSstaOptions::cancelled: polled between Monte Carlo
  /// lease claims; a true return aborts the run with kDeadlineExceeded.
  /// Empty = never cancelled. Must be thread-safe.
  std::function<bool()> cancelled;
  /// Non-empty: run the Monte Carlo through the checkpointed runner with
  /// this run id (requires the store path — the ledger lives under
  /// <store root>/mc_runs). See ExperimentConfig::run_id.
  std::string run_id;
  bool resume = false;
  /// Forwarded to McRunOptions::share_coordinator (checkpointed runs
  /// only): turns the run into a distributed coordinator whose lease
  /// table is served to remote workers. See ssta/mc_run.h.
  std::function<void(LeaseCoordinator*, const LedgerHeader*)>
      share_coordinator;
};

/// Statistics + provenance + telemetry of one Algorithm 2 run.
struct KleRunOutcome {
  McSstaResult ssta;            // the Monte Carlo statistics
  double setup_seconds = 0.0;   // KLE solve — or store fetch — wall time
  bool from_store = false;      // request went through the artifact store
  store::FetchSource source = store::FetchSource::kSolved;  // store path only
  std::size_t mesh_triangles = 0;  // n of the KLE actually used
  KleRunInfo info;              // fallback / out-of-mesh / health telemetry
  bool checkpointed = false;    // ran through the durable-ledger runner
  McRunStats mc_run;            // lease/ledger telemetry (checkpointed only)
};

/// Reusable pieces for sweep benches (Fig. 6 varies r and n on one circuit
/// without rebuilding the netlist/placement/reference run each time).
class ExperimentPipeline {
 public:
  explicit ExperimentPipeline(const ExperimentConfig& config);

  const timing::StaEngine& engine() const { return *engine_; }
  const placer::Placement& placement() const { return *placement_; }
  const std::vector<geometry::Point2>& gate_locations() const {
    return locations_;
  }
  const kernels::CovarianceKernel& kernel() const { return *kernel_; }
  std::size_t num_gates() const { return locations_.size(); }

  /// Reference (Algorithm 1) statistics; computed once, cached.
  const McSstaResult& reference();
  double reference_setup_seconds();

  /// Runs Algorithm 2 with the KLE described by the request (fresh solve on
  /// request.mesh, or fetched through request.store).
  KleRunOutcome run_kle(const KleRunRequest& request);

  /// The artifact configuration this pipeline's KLE is keyed under (paper
  /// mesh on the unit die, this pipeline's kernel, centroid quadrature).
  store::KleArtifactConfig artifact_config(std::size_t num_eigenpairs) const;

  const ExperimentConfig& config() const { return config_; }

 private:
  McSstaOptions mc_options() const;

  ExperimentConfig config_;
  std::unique_ptr<circuit::Netlist> netlist_;
  std::unique_ptr<placer::Placement> placement_;
  std::unique_ptr<timing::CellLibrary> library_;
  std::unique_ptr<timing::StaEngine> engine_;
  std::vector<geometry::Point2> locations_;
  std::unique_ptr<kernels::CovarianceKernel> kernel_;
  std::unique_ptr<McSstaResult> reference_;
  double reference_setup_seconds_ = 0.0;
};

}  // namespace sckl::ssta
