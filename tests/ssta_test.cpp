// Tests for src/ssta: the Monte Carlo harness bookkeeping and a small
// end-to-end experiment checking the paper's headline claims in miniature
// (KLE statistics track the Cholesky reference).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>

#include "circuit/bench_parser.h"
#include "circuit/synthetic.h"
#include "common/error.h"
#include "core/kle_solver.h"
#include "field/cholesky_sampler.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "linalg/gemm.h"
#include "mesh/structured_mesher.h"
#include "obs/metrics.h"
#include "placer/recursive_placer.h"
#include "robust/fault_injection.h"
#include "ssta/experiment.h"
#include "ssta/lease_ledger.h"
#include "ssta/mc_run.h"
#include "ssta/mc_ssta.h"
#include "store/file_lock.h"
#include "store/record_log.h"

namespace sckl::ssta {
namespace {

class McSstaTest : public ::testing::Test {
 protected:
  McSstaTest()
      : netlist_(circuit::parse_bench_string(circuit::c17_bench_text(),
                                             "c17")),
        placement_(placer::place(netlist_)),
        library_(timing::CellLibrary::default_90nm()),
        engine_(netlist_, placement_, library_),
        kernel_(kernels::paper_gaussian_c()),
        locations_(placement_.physical_locations(netlist_)),
        sampler_(kernel_, locations_) {}

  circuit::Netlist netlist_;
  placer::Placement placement_;
  timing::CellLibrary library_;
  timing::StaEngine engine_;
  kernels::GaussianKernel kernel_;
  std::vector<geometry::Point2> locations_;
  field::CholeskyFieldSampler sampler_;
};

TEST_F(McSstaTest, CollectsRequestedSampleCount) {
  const ParameterSamplers samplers{&sampler_, &sampler_, &sampler_,
                                   &sampler_};
  McSstaOptions options;
  options.num_samples = 500;
  options.block_size = 64;  // exercises a partial last block
  const McSstaResult r = run_monte_carlo_ssta(engine_, samplers, options);
  EXPECT_EQ(r.worst_delay.count(), 500u);
  ASSERT_EQ(r.endpoint.size(), engine_.num_endpoints());
  for (const auto& e : r.endpoint) EXPECT_EQ(e.count(), 500u);
  EXPECT_GE(r.total_seconds, 0.0);
  EXPECT_GE(r.sampling_seconds, 0.0);
  EXPECT_GE(r.sta_seconds, 0.0);
}

TEST_F(McSstaTest, MeanNearNominalAndPositiveSigma) {
  const ParameterSamplers samplers{&sampler_, &sampler_, &sampler_,
                                   &sampler_};
  McSstaOptions options;
  options.num_samples = 3000;
  const McSstaResult r = run_monte_carlo_ssta(engine_, samplers, options);
  const double nominal = engine_.run_nominal().worst_delay;
  // With few-percent sensitivities the mean sits near nominal and sigma is
  // a few percent of it.
  EXPECT_NEAR(r.worst_delay.mean(), nominal, 0.15 * nominal);
  EXPECT_GT(r.worst_delay.stddev(), 0.005 * nominal);
  EXPECT_LT(r.worst_delay.stddev(), 0.5 * nominal);
}

TEST_F(McSstaTest, DeterministicInSeed) {
  const ParameterSamplers samplers{&sampler_, &sampler_, &sampler_,
                                   &sampler_};
  McSstaOptions options;
  options.num_samples = 100;
  const McSstaResult a = run_monte_carlo_ssta(engine_, samplers, options);
  const McSstaResult b = run_monte_carlo_ssta(engine_, samplers, options);
  EXPECT_DOUBLE_EQ(a.worst_delay.mean(), b.worst_delay.mean());
  EXPECT_DOUBLE_EQ(a.worst_delay.stddev(), b.worst_delay.stddev());
}

TEST_F(McSstaTest, ValidatesConfiguration) {
  const ParameterSamplers samplers{&sampler_, &sampler_, &sampler_,
                                   &sampler_};
  McSstaOptions bad;
  bad.num_samples = 0;
  EXPECT_THROW(run_monte_carlo_ssta(engine_, samplers, bad), Error);
  const ParameterSamplers missing{&sampler_, nullptr, &sampler_, &sampler_};
  EXPECT_THROW(run_monte_carlo_ssta(engine_, missing, {}), Error);
}

TEST_F(McSstaTest, CancelledPlainRunStopsAtTheLeaseBoundary) {
  const ParameterSamplers samplers{&sampler_, &sampler_, &sampler_,
                                   &sampler_};
  McSstaOptions options;
  options.num_samples = 200;
  options.block_size = 16;
  options.num_threads = 1;
  std::atomic<int> polls{0};
  // Poll 1 (before the first claim) passes; poll 2 cancels: a plain run's
  // lease is one block, so exactly one block runs.
  options.cancelled = [&polls] { return ++polls >= 2; };
  obs::Counter& blocks = obs::counter("sckl.ssta.mc.blocks");
  const std::uint64_t before = blocks.value();
  try {
    run_monte_carlo_ssta(engine_, samplers, options);
    FAIL() << "cancelled plain run did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(blocks.value() - before, 1u);
}

TEST(Experiment, SmallCircuitKleTracksReference) {
  // End-to-end miniature of a Table 1 row on the smallest paper circuit
  // with few samples; statistical errors must land in single-digit percent.
  ExperimentConfig config;
  config.circuit = "c880";
  config.num_samples = 400;
  config.r = 25;
  config.seed = 3;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.num_gates, 383u);
  EXPECT_GT(result.mesh_triangles, 1000u);
  EXPECT_GT(result.mc_sigma, 0.0);
  EXPECT_GT(result.kle_sigma, 0.0);
  // Mean errors are tiny (paper: <= 0.109%); allow sampling noise at N=400.
  EXPECT_LT(result.e_mu_percent, 2.0);
  // Sigma error: paper <= 5.7% at 100K samples; N=400 noise floor is
  // ~1/sqrt(2*400) ~ 3.5% per estimate, so stay generous.
  EXPECT_LT(result.e_sigma_percent, 25.0);
  EXPECT_GT(result.speedup, 0.0);
  EXPECT_FALSE(result.endpoint_sigma_error.empty());
  EXPECT_GE(result.mean_endpoint_sigma_error(), 0.0);
}

TEST(Experiment, PipelineReusesReference) {
  ExperimentConfig config;
  config.circuit = "c880";
  config.num_samples = 120;
  ExperimentPipeline pipeline(config);
  const McSstaResult& first = pipeline.reference();
  const McSstaResult& second = pipeline.reference();
  EXPECT_EQ(&first, &second);  // cached
  EXPECT_EQ(first.worst_delay.count(), 120u);
  EXPECT_GT(pipeline.num_gates(), 0u);

  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 400);
  KleRunRequest request;
  request.r = 10;
  request.num_eigenpairs = 20;
  request.mesh = &mesh;
  const KleRunOutcome outcome = pipeline.run_kle(request);
  EXPECT_EQ(outcome.ssta.worst_delay.count(), 120u);
  EXPECT_GE(outcome.setup_seconds, 0.0);
  EXPECT_FALSE(outcome.from_store);
  EXPECT_EQ(outcome.mesh_triangles, mesh.num_triangles());
}

TEST(Experiment, RunKleRejectsAmbiguousProvenance) {
  ExperimentConfig config;
  config.circuit = "c880";
  config.num_samples = 8;
  ExperimentPipeline pipeline(config);
  KleRunRequest neither;  // no mesh, no store
  EXPECT_THROW(pipeline.run_kle(neither), Error);
}

TEST(Experiment, RunKleRejectsACheckpointedRunWithoutStoreBeforeSolving) {
  ExperimentConfig config;
  config.circuit = "c880";
  config.num_samples = 8;
  ExperimentPipeline pipeline(config);
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 200);
  KleRunRequest request;
  request.r = 5;
  request.num_eigenpairs = 10;
  request.mesh = &mesh;
  request.run_id = "no-store";  // the ledger needs the store root
  obs::Counter& solves = obs::counter("sckl.core.kle_solves");
  const std::uint64_t before = solves.value();
  try {
    pipeline.run_kle(request);
    FAIL() << "checkpointed run without a store was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPrecondition);
  }
  EXPECT_EQ(solves.value(), before) << "the KLE was solved before rejecting";
}

// --- determinism of the parallel block pipeline ----------------------------

class ParallelDeterminismTest : public McSstaTest {
 protected:
  McSstaResult run_with(std::size_t threads, std::size_t block_size) {
    const ParameterSamplers samplers{&sampler_, &sampler_, &sampler_,
                                     &sampler_};
    McSstaOptions options;
    options.num_samples = 300;
    options.block_size = block_size;
    options.seed = 42;
    options.keep_samples = true;
    options.num_threads = threads;
    return run_monte_carlo_ssta(engine_, samplers, options);
  }
};

TEST_F(ParallelDeterminismTest, ThreadCountDoesNotChangeAnyBit) {
  const McSstaResult serial = run_with(1, 32);
  EXPECT_EQ(serial.threads_used, 1u);
  for (const std::size_t threads : {2u, 8u}) {
    const McSstaResult parallel = run_with(threads, 32);
    EXPECT_GT(parallel.threads_used, 1u);
    // Bit-equality, not tolerance: every retained sample and the merged
    // moments must be identical to the serial run.
    ASSERT_EQ(parallel.worst_delay_samples.size(),
              serial.worst_delay_samples.size());
    for (std::size_t i = 0; i < serial.worst_delay_samples.size(); ++i)
      ASSERT_EQ(parallel.worst_delay_samples[i],
                serial.worst_delay_samples[i])
          << "sample " << i << " at " << threads << " threads";
    EXPECT_EQ(parallel.worst_delay.mean(), serial.worst_delay.mean());
    EXPECT_EQ(parallel.worst_delay.stddev(), serial.worst_delay.stddev());
    ASSERT_EQ(parallel.endpoint.size(), serial.endpoint.size());
    for (std::size_t e = 0; e < serial.endpoint.size(); ++e) {
      EXPECT_EQ(parallel.endpoint[e].mean(), serial.endpoint[e].mean());
      EXPECT_EQ(parallel.endpoint[e].stddev(), serial.endpoint[e].stddev());
    }
  }
}

TEST_F(ParallelDeterminismTest, RetainedSamplesAreBlockSizeInvariant) {
  // Index-addressed draws: sample i never depends on how the run was cut
  // into blocks. (Merged moments are accumulated per block, so they are
  // guaranteed invariant across thread counts, not across block sizes.)
  const McSstaResult small_blocks = run_with(1, 32);
  const McSstaResult large_blocks = run_with(1, 256);
  ASSERT_EQ(small_blocks.worst_delay_samples.size(),
            large_blocks.worst_delay_samples.size());
  for (std::size_t i = 0; i < small_blocks.worst_delay_samples.size(); ++i)
    ASSERT_EQ(small_blocks.worst_delay_samples[i],
              large_blocks.worst_delay_samples[i])
        << "sample " << i;
}

TEST_F(ParallelDeterminismTest, DispatchTargetDoesNotChangeAnyBit) {
  // End-to-end determinism across SIMD kernel sets: the whole MC pipeline
  // (batched latents -> GEMM reconstruct -> STA) forced down to the scalar
  // kernels must retain sample bits identical to every SIMD target, and
  // that invariance must hold under threading at the same time.
  linalg::set_simd_target(linalg::SimdTarget::kScalar);
  const McSstaResult scalar = run_with(1, 32);
  linalg::reset_simd_target();
  for (const linalg::SimdTarget target :
       {linalg::SimdTarget::kAvx2, linalg::SimdTarget::kAvx512}) {
    if (!linalg::simd_target_supported(target)) continue;
    linalg::set_simd_target(target);
    const McSstaResult serial = run_with(1, 32);
    const McSstaResult threaded = run_with(8, 32);
    linalg::reset_simd_target();
    ASSERT_EQ(serial.worst_delay_samples.size(),
              scalar.worst_delay_samples.size());
    for (std::size_t i = 0; i < scalar.worst_delay_samples.size(); ++i) {
      ASSERT_EQ(serial.worst_delay_samples[i],
                scalar.worst_delay_samples[i])
          << linalg::simd_target_name(target) << " sample " << i;
      ASSERT_EQ(threaded.worst_delay_samples[i],
                scalar.worst_delay_samples[i])
          << linalg::simd_target_name(target) << " threaded sample " << i;
    }
    EXPECT_EQ(serial.worst_delay.mean(), scalar.worst_delay.mean());
    EXPECT_EQ(serial.worst_delay.stddev(), scalar.worst_delay.stddev());
  }
}

TEST_F(ParallelDeterminismTest, ThreadCapIsNumBlocks) {
  // 300 samples at block_size 256 = 2 blocks; asking for 8 threads must
  // resolve to at most 2 workers.
  const McSstaResult r = run_with(8, 256);
  EXPECT_LE(r.threads_used, 2u);
  EXPECT_EQ(r.worst_delay.count(), 300u);
}

// --- checkpointed (crash-safe, resumable) runner ---------------------------

class CheckpointedMcTest : public McSstaTest {
 protected:
  ParameterSamplers samplers() {
    return {&sampler_, &sampler_, &sampler_, &sampler_};
  }

  /// 200 samples in 13 blocks of 16, 3 blocks per lease -> 5 leases.
  static McSstaOptions mc_options(std::size_t threads = 1) {
    McSstaOptions options;
    options.num_samples = 200;
    options.block_size = 16;
    options.seed = 7;
    options.sketch_capacity = 64;
    options.num_threads = threads;
    return options;
  }

  static std::filesystem::path scratch_dir(const std::string& name) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("sckl_mc_" + name);
    std::filesystem::remove_all(dir);
    return dir;
  }

  static McRunOptions run_options(const std::filesystem::path& dir,
                                  bool resume = false) {
    McRunOptions run;
    run.run_id = "test-run";
    run.ledger_dir = dir;
    run.lease_blocks = 3;
    run.resume = resume;
    run.workload_key = 0xc17c17;
    return run;
  }

  /// The resume invariant: bitwise identity of every statistic.
  static void expect_state_equal(const McSstaResult& a, const McSstaResult& b) {
    EXPECT_TRUE(a.worst_delay.state_equals(b.worst_delay));
    EXPECT_TRUE(a.worst_delay_sketch.state_equals(b.worst_delay_sketch));
    ASSERT_EQ(a.endpoint.size(), b.endpoint.size());
    for (std::size_t e = 0; e < a.endpoint.size(); ++e)
      EXPECT_TRUE(a.endpoint[e].state_equals(b.endpoint[e])) << "endpoint " << e;
  }
};

TEST_F(CheckpointedMcTest, MatchesUninterruptedRunAcrossThreadCounts) {
  const std::filesystem::path ref_dir = scratch_dir("threads_ref");
  McRunStats ref_stats;
  const McSstaResult reference = run_checkpointed_monte_carlo_ssta(
      engine_, samplers(), mc_options(1), run_options(ref_dir), &ref_stats);
  EXPECT_EQ(reference.worst_delay.count(), 200u);
  EXPECT_EQ(ref_stats.leases_total, 5u);
  EXPECT_EQ(ref_stats.leases_claimed, 5u);
  EXPECT_EQ(ref_stats.leases_resumed, 0u);
  // Header record + one record per lease.
  EXPECT_EQ(ref_stats.ledger_appends, 6u);
  EXPECT_EQ(reference.worst_delay_sketch.count(), 200u);

  // Lease claiming is dynamic, but the fold order is fixed: any thread
  // count produces the identical bits.
  for (const std::size_t threads : {2u, 8u}) {
    const std::filesystem::path dir =
        scratch_dir("threads_" + std::to_string(threads));
    const McSstaResult parallel = run_checkpointed_monte_carlo_ssta(
        engine_, samplers(), mc_options(threads), run_options(dir));
    expect_state_equal(parallel, reference);
  }

  // Sanity against the plain runner: the lease-level fold nesting differs,
  // so identity is statistical (tight), not bitwise.
  const McSstaResult plain =
      run_monte_carlo_ssta(engine_, samplers(), mc_options(1));
  EXPECT_NEAR(plain.worst_delay.mean(), reference.worst_delay.mean(),
              1e-9 * plain.worst_delay.mean());
  EXPECT_NEAR(plain.worst_delay.stddev(), reference.worst_delay.stddev(),
              1e-6 * plain.worst_delay.stddev());
}

TEST_F(CheckpointedMcTest, PlainRunEqualsOneBlockLeasesBitForBit) {
  // A plain run is the lease runner at one block per lease with no ledger,
  // so it must equal a checkpointed run at lease_blocks = 1 bit for bit —
  // including the partial last block (200 = 12 x 16 + 8).
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::filesystem::path dir =
        scratch_dir("one_block_" + std::to_string(threads));
    McRunOptions run = run_options(dir);
    run.lease_blocks = 1;
    const McSstaResult checkpointed = run_checkpointed_monte_carlo_ssta(
        engine_, samplers(), mc_options(threads), run);
    const McSstaResult plain =
        run_monte_carlo_ssta(engine_, samplers(), mc_options(threads));
    EXPECT_EQ(plain.worst_delay.count(), 200u);
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_state_equal(plain, checkpointed);
  }
}

/// Delegates to a real sampler but sleeps in every latent draw, so a lease
/// takes far longer than a 1 ms lease TTL.
class SlowSampler : public field::FieldSampler {
 public:
  explicit SlowSampler(const field::FieldSampler& inner) : inner_(inner) {}
  std::size_t num_locations() const override { return inner_.num_locations(); }
  std::size_t latent_dimension() const override {
    return inner_.latent_dimension();
  }
  void latent_block(const field::SampleRange& range, const StreamKey& key,
                    linalg::Matrix& xi) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    inner_.latent_block(range, key, xi);
  }
  void reconstruct(const linalg::Matrix& xi,
                   linalg::Matrix& out) const override {
    inner_.reconstruct(xi, out);
  }

 private:
  const field::FieldSampler& inner_;
};

TEST_F(CheckpointedMcTest, LeaseSlowerThanItsTtlStillCompletes) {
  // Only remote claims time out: a lease held by a live thread of this
  // process must publish even when computing it outlasts the TTL.
  const SlowSampler slow(sampler_);
  const ParameterSamplers slow_samplers{&slow, &slow, &slow, &slow};
  McSstaOptions options = mc_options(1);
  options.lease_ttl_ms = 1;
  // Bounds each run: a lease table that times out its own claims would
  // recompute forever and fail here with kDeadlineExceeded.
  const auto start = std::chrono::steady_clock::now();
  options.cancelled = [start] {
    return std::chrono::steady_clock::now() - start > std::chrono::seconds(20);
  };

  McRunStats stats;
  const McSstaResult checkpointed = run_checkpointed_monte_carlo_ssta(
      engine_, slow_samplers, options, run_options(scratch_dir("ttl")),
      &stats);
  EXPECT_EQ(stats.leases_expired, 0u);
  expect_state_equal(checkpointed,
                     run_checkpointed_monte_carlo_ssta(
                         engine_, samplers(), mc_options(1),
                         run_options(scratch_dir("ttl_ref"))));

  const McSstaResult plain =
      run_monte_carlo_ssta(engine_, slow_samplers, options);
  expect_state_equal(plain,
                     run_monte_carlo_ssta(engine_, samplers(), mc_options(1)));
}

TEST_F(CheckpointedMcTest, CancelledRunResumesToIdenticalBits) {
  const std::filesystem::path ref_dir = scratch_dir("cancel_ref");
  const McSstaResult reference = run_checkpointed_monte_carlo_ssta(
      engine_, samplers(), mc_options(1), run_options(ref_dir));

  const std::filesystem::path dir = scratch_dir("cancel");
  McSstaOptions cancelling = mc_options(1);
  std::atomic<int> polls{0};
  // Poll 1 (before the first claim) passes; poll 2 cancels: exactly one
  // lease completes and is durable.
  cancelling.cancelled = [&polls] { return ++polls >= 2; };
  try {
    run_checkpointed_monte_carlo_ssta(engine_, samplers(), cancelling,
                                      run_options(dir));
    FAIL() << "cancelled run did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }

  McRunStats resumed_stats;
  const McSstaResult resumed = run_checkpointed_monte_carlo_ssta(
      engine_, samplers(), mc_options(1), run_options(dir, /*resume=*/true),
      &resumed_stats);
  EXPECT_EQ(resumed_stats.leases_resumed, 1u);
  EXPECT_EQ(resumed_stats.leases_claimed, 4u);
  expect_state_equal(resumed, reference);
}

TEST_F(CheckpointedMcTest, ResumingACompleteRunRecomputesNothing) {
  const std::filesystem::path dir = scratch_dir("complete");
  const McSstaResult first = run_checkpointed_monte_carlo_ssta(
      engine_, samplers(), mc_options(1), run_options(dir));
  McRunStats stats;
  const McSstaResult again = run_checkpointed_monte_carlo_ssta(
      engine_, samplers(), mc_options(1), run_options(dir, /*resume=*/true),
      &stats);
  EXPECT_EQ(stats.leases_resumed, 5u);
  EXPECT_EQ(stats.leases_claimed, 0u);
  EXPECT_EQ(stats.ledger_appends, 0u);
  expect_state_equal(again, first);
}

TEST_F(CheckpointedMcTest, ExpiredLeaseIsReclaimedAndRecomputedIdentically) {
  const std::filesystem::path ref_dir = scratch_dir("expire_ref");
  const McSstaResult reference = run_checkpointed_monte_carlo_ssta(
      engine_, samplers(), mc_options(1), run_options(ref_dir));

  // The fault site makes the first publish find its claim expired; the
  // worker loop reclaims and recomputes the lease deterministically.
  const std::filesystem::path dir = scratch_dir("expire");
  robust::ScopedFaultPlan plan("mc_lease_expire:1");
  McRunStats stats;
  const McSstaResult result = run_checkpointed_monte_carlo_ssta(
      engine_, samplers(), mc_options(1), run_options(dir), &stats);
  EXPECT_EQ(stats.leases_expired, 1u);
  EXPECT_EQ(stats.leases_recomputed, 1u);
  EXPECT_EQ(stats.leases_claimed, 6u);  // 5 leases + 1 reclaim
  expect_state_equal(result, reference);
}

TEST_F(CheckpointedMcTest, RejectsMismatchedWorkloadOrOptions) {
  const std::filesystem::path dir = scratch_dir("mismatch");
  run_checkpointed_monte_carlo_ssta(engine_, samplers(), mc_options(1),
                                    run_options(dir));

  McRunOptions other_workload = run_options(dir, /*resume=*/true);
  other_workload.workload_key = 0xbad;
  try {
    run_checkpointed_monte_carlo_ssta(engine_, samplers(), mc_options(1),
                                      other_workload);
    FAIL() << "foreign workload accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPrecondition);
  }

  McSstaOptions other_samples = mc_options(1);
  other_samples.num_samples = 300;
  EXPECT_THROW(run_checkpointed_monte_carlo_ssta(engine_, samplers(),
                                                 other_samples,
                                                 run_options(dir, true)),
               Error);

  McSstaOptions other_sketch = mc_options(1);
  other_sketch.sketch_capacity = 128;
  EXPECT_THROW(run_checkpointed_monte_carlo_ssta(engine_, samplers(),
                                                 other_sketch,
                                                 run_options(dir, true)),
               Error);
}

TEST_F(CheckpointedMcTest, FreshRunRefusesALedgerWithCompletedLeases) {
  const std::filesystem::path dir = scratch_dir("fresh_guard");
  run_checkpointed_monte_carlo_ssta(engine_, samplers(), mc_options(1),
                                    run_options(dir));
  try {
    run_checkpointed_monte_carlo_ssta(engine_, samplers(), mc_options(1),
                                      run_options(dir, /*resume=*/false));
    FAIL() << "fresh run silently continued an existing ledger";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPrecondition);
    EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos);
  }
}

TEST_F(CheckpointedMcTest, ValidatesRunIdAndRejectsKeepSamples) {
  const std::filesystem::path dir = scratch_dir("validate");
  for (const std::string bad : {"", "..", "a/b", "x y", "../escape"}) {
    McRunOptions run = run_options(dir);
    run.run_id = bad;
    EXPECT_THROW(run_checkpointed_monte_carlo_ssta(engine_, samplers(),
                                                   mc_options(1), run),
                 Error)
        << "run_id '" << bad << "' accepted";
  }
  McSstaOptions keep = mc_options(1);
  keep.keep_samples = true;
  EXPECT_THROW(run_checkpointed_monte_carlo_ssta(engine_, samplers(), keep,
                                                 run_options(dir)),
               Error);
}

TEST_F(CheckpointedMcTest, ConcurrentRunnerIsRejectedWhileLockIsHeld) {
  const std::filesystem::path dir = scratch_dir("locked");
  std::filesystem::create_directories(dir);
  const store::FileLock held = store::FileLock::acquire(
      dir / "test-run.lock", store::FileLock::Mode::kExclusive);
  try {
    run_checkpointed_monte_carlo_ssta(engine_, samplers(), mc_options(1),
                                      run_options(dir));
    FAIL() << "second writer admitted while the lock was held";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
  }
}

TEST_F(CheckpointedMcTest, SketchReportsTailQuantiles) {
  const std::filesystem::path dir = scratch_dir("tails");
  const McSstaResult r = run_checkpointed_monte_carlo_ssta(
      engine_, samplers(), mc_options(1), run_options(dir));
  const QuantileSketch& sketch = r.worst_delay_sketch;
  EXPECT_EQ(sketch.count(), 200u);
  EXPECT_DOUBLE_EQ(sketch.min(), r.worst_delay.min());
  EXPECT_DOUBLE_EQ(sketch.max(), r.worst_delay.max());
  const double p50 = sketch.quantile(0.5);
  const double p99 = sketch.quantile(0.99);
  const double p999 = sketch.quantile(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, sketch.max());
  EXPECT_GE(p99, r.worst_delay.mean());  // the tail sits above the mean
}

// --- the remote half of the lease state machine ----------------------------

class LeaseCoordinatorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kEndpoints = 2;

  /// 3 leases of 2 blocks over a fresh ledger file.
  LeaseCoordinator make_coordinator(const std::string& name,
                                    double ttl_seconds) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("sckl_lease_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<Lease> leases(3);
    for (std::size_t l = 0; l < 3; ++l) {
      leases[l].first_block = 2 * l;
      leases[l].num_blocks = 2;
    }
    return LeaseCoordinator(std::move(leases),
                            store::RecordLog::open(dir / "ledger.log"),
                            ttl_seconds, kEndpoints, stats_);
  }

  static detail::BlockPartial make_partial(std::size_t endpoints = kEndpoints) {
    detail::BlockPartial p;
    p.worst_delay.add(1.0);
    p.worst_delay_sketch.add(1.0);
    p.endpoint.resize(endpoints);
    for (RunningStats& e : p.endpoint) e.add(0.5);
    return p;
  }

  McRunStats stats_;
};

TEST_F(LeaseCoordinatorTest, RemoteClaimHeartbeatPublishRoundTrip) {
  LeaseCoordinator coord = make_coordinator("roundtrip", /*ttl=*/30.0);
  EXPECT_THROW(coord.claim_remote(/*worker=*/0, 1), Error);

  const std::vector<ClaimedLease> claimed = coord.claim_remote(7, 2);
  ASSERT_EQ(claimed.size(), 2u);
  EXPECT_EQ(claimed[0].index, 0u);
  EXPECT_EQ(claimed[0].first_block, 0u);
  EXPECT_EQ(claimed[0].num_blocks, 2u);
  EXPECT_EQ(claimed[1].index, 1u);
  EXPECT_EQ(stats_.leases_remote_claimed, 2u);
  EXPECT_EQ(coord.progress().claimed, 2u);

  // Heartbeats only extend the claimer's own leases.
  EXPECT_EQ(coord.heartbeat(7), 2u);
  EXPECT_EQ(coord.heartbeat(99), 0u);

  // Wire-supplied geometry is validated against the lease table before the
  // partial can touch the ledger.
  const detail::BlockPartial partial = make_partial();
  EXPECT_THROW(coord.publish_remote(7, /*index=*/5, 0, 2, partial), Error);
  EXPECT_THROW(coord.publish_remote(7, /*index=*/0, 1, 2, partial), Error);
  EXPECT_THROW(
      coord.publish_remote(7, 0, 0, 2, make_partial(kEndpoints + 1)), Error);

  EXPECT_TRUE(coord.publish_remote(7, 0, 0, 2, partial));
  EXPECT_EQ(stats_.leases_remote_published, 1u);
  // A duplicate publish of a complete lease carries identical bits by
  // construction: silently deduped, not an error, not a second commit.
  EXPECT_TRUE(coord.publish_remote(42, 0, 0, 2, partial));
  EXPECT_EQ(stats_.leases_remote_published, 1u);
  EXPECT_EQ(stats_.ledger_appends, 1u);
  // Publishing a lease nobody holds is refused: claim again.
  EXPECT_FALSE(coord.publish_remote(7, 2, 4, 2, partial));
  EXPECT_EQ(coord.progress().complete, 1u);
  EXPECT_FALSE(coord.all_complete());
}

TEST_F(LeaseCoordinatorTest, ExpiredRemoteClaimIsReclaimedAndRecommitted) {
  LeaseCoordinator coord = make_coordinator("expiry", /*ttl=*/0.05);
  ASSERT_EQ(coord.claim_remote(7, 1).size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  // The claim timed out without a heartbeat: the late publish is refused
  // and the lease goes back to Available.
  EXPECT_FALSE(coord.publish_remote(7, 0, 0, 2, make_partial()));
  EXPECT_GE(stats_.leases_expired, 1u);
  EXPECT_EQ(coord.progress().claimed, 0u);
  // An expired heartbeat does not revive the claim either.
  EXPECT_EQ(coord.heartbeat(7), 0u);

  // A re-claimer commits the identical bits; the recompute is counted.
  const std::vector<ClaimedLease> again = coord.claim_remote(8, 1);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].index, 0u);
  EXPECT_TRUE(coord.publish_remote(8, 0, 0, 2, make_partial()));
  EXPECT_EQ(stats_.leases_recomputed, 1u);
  EXPECT_EQ(coord.progress().complete, 1u);
}

TEST_F(LeaseCoordinatorTest, RemoteActivityWakesTheCoordinatorWait) {
  LeaseCoordinator coord = make_coordinator("activity", /*ttl=*/30.0);
  std::uint64_t last_seen = coord.activity_count();
  // Silence: the wait times out, the cue for the local fallback to compute.
  EXPECT_FALSE(coord.wait_for_remote_activity(last_seen, 0.01));
  // A remote claim bumps the activity counter and wakes the waiter.
  std::thread claimer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    coord.claim_remote(7, 1);
  });
  EXPECT_TRUE(coord.wait_for_remote_activity(last_seen, 5.0));
  claimer.join();
  EXPECT_EQ(last_seen, coord.activity_count());
}

}  // namespace
}  // namespace sckl::ssta
