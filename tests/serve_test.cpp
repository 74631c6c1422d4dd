// Tests of the sckl_serve daemon: protocol robustness (hostile bytes give
// typed errors, never crashes), SampleBlock bit-exactness vs local
// sampling (also with more clients than workers, so requests queue),
// cold-key solve dedup across concurrent clients, deadlines checked before
// any work, admission control, fault sites, and graceful shutdown —
// including a fork-based SIGTERM-under-load restart test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/error.h"
#include "common/socket.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "robust/fault_injection.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/server.h"
#include "serve/worker.h"
#include "store/artifact_store.h"
#include "store/kle_io.h"

namespace sckl {
namespace {

// Unix socket paths are limited to ~100 chars: keep scratch under /tmp
// regardless of where the build tree lives.
std::filesystem::path fresh_scratch() {
  static std::atomic<int> counter{0};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sckl_serve_test_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

store::KleArtifactConfig small_config() {
  store::KleArtifactConfig config;
  config.kernel_id = "gaussian";
  config.kernel_params = {kernels::paper_gaussian_c()};
  config.mesh.kind = store::MeshSpec::Kind::kPaperRefined;
  config.mesh.area_fraction = 0.01;  // ~200 triangles
  config.mesh.mesher_seed = 8;
  config.num_eigenpairs = 16;
  return config;
}

std::vector<geometry::Point2> test_locations(std::size_t n) {
  std::vector<geometry::Point2> locations;
  locations.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i + 1) / static_cast<double>(n + 1);
    locations.push_back({t, 1.0 - t * t});
  }
  return locations;
}

serve::SampleBlockRequest sample_request(std::uint64_t first,
                                         std::size_t count) {
  serve::SampleBlockRequest request;
  request.config = small_config();
  request.r = 8;
  request.locations = test_locations(40);
  request.range = {first, count};
  request.stream = {1234, 2};
  return request;
}

/// A server on a fresh socket + store root, torn down with the fixture.
class ServeTest : public ::testing::Test {
 protected:
  /// Starts a server; one started earlier in the test is torn down first.
  void start(serve::ServerOptions options = {}) {
    TearDown();
    scratch_ = fresh_scratch();
    options.unix_path = (scratch_ / "serve.sock").string();
    options.store_root = (scratch_ / "store").string();
    options_ = options;
    server_ = std::make_unique<serve::Server>(options_);
    server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
    server_.reset();
    if (!scratch_.empty()) std::filesystem::remove_all(scratch_);
  }

  serve::Client client() {
    return serve::Client::connect_unix(options_.unix_path);
  }

  std::filesystem::path scratch_;
  serve::ServerOptions options_;
  std::unique_ptr<serve::Server> server_;
};

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  return ErrorCode::kGeneric;
}

// --- basic round trips -----------------------------------------------------

TEST_F(ServeTest, HelloRoundTrip) {
  start();
  serve::Client c = client();
  const serve::HelloReply hello = c.hello();
  EXPECT_EQ(hello.protocol_version, wire::kProtocolVersion);
  EXPECT_EQ(hello.server, options_.server_name);
}

TEST_F(ServeTest, StatsDocumentHasSchemaAndCounters) {
  start();
  serve::Client c = client();
  const std::string json = c.stats().json;
  EXPECT_NE(json.find("\"schema\": \"sckl-serve-stats-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"deduped_solves\""), std::string::npos);
  EXPECT_NE(json.find("\"sampler_cache\""), std::string::npos);
  EXPECT_NE(json.find("sckl.serve.requests"), std::string::npos);
  // The admission block surfaces every hardening counter an operator needs
  // to distinguish overload shedding from client bugs.
  EXPECT_NE(json.find("\"admission\""), std::string::npos);
  EXPECT_NE(json.find("\"rejected_row_limit\""), std::string::npos);
  EXPECT_NE(json.find("\"rejected_reply_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"connections_reaped\""), std::string::npos);
  EXPECT_NE(json.find("\"rejected_overloaded\""), std::string::npos);
}

TEST_F(ServeTest, SolveKleColdThenWarm) {
  start();
  serve::Client c = client();
  serve::SolveKleRequest request;
  request.config = small_config();
  const serve::SolveKleReply cold = c.solve_kle(request);
  EXPECT_EQ(cold.source, static_cast<std::uint32_t>(store::FetchSource::kSolved));
  EXPECT_GT(cold.mesh_triangles, 0u);
  EXPECT_EQ(cold.num_eigenpairs, 16u);
  EXPECT_TRUE(cold.artifact.empty());

  request.want_artifact = true;
  const serve::SolveKleReply warm = c.solve_kle(request);
  EXPECT_EQ(warm.source, static_cast<std::uint32_t>(store::FetchSource::kMemory));
  EXPECT_EQ(warm.key, cold.key);
  EXPECT_FALSE(warm.artifact.empty());
}

TEST_F(ServeTest, RunSstaReturnsStatistics) {
  start();
  serve::Client c = client();
  serve::RunSstaRequest request;
  request.circuit = "c880";
  request.num_samples = 64;
  request.r = 8;
  request.mesh_area_fraction = 0.01;
  request.seed = 3;
  request.num_threads = 1;
  const serve::RunSstaReply reply = c.run_ssta(request);
  EXPECT_GT(reply.mean, 0.0);
  EXPECT_GT(reply.sigma, 0.0);
  EXPECT_GT(reply.mesh_triangles, 0u);
  EXPECT_EQ(reply.threads_used, 1u);

  // Same config again: the pipeline and artifact are cached server-side and
  // the statistics are deterministic.
  const serve::RunSstaReply again = c.run_ssta(request);
  EXPECT_EQ(again.mean, reply.mean);
  EXPECT_EQ(again.sigma, reply.sigma);
  EXPECT_EQ(again.source,
            static_cast<std::uint32_t>(store::FetchSource::kMemory));
}

TEST_F(ServeTest, RunSstaCheckpointedReportsTailsAndResumes) {
  start();
  serve::Client c = client();
  serve::RunSstaRequest request;
  request.circuit = "c880";
  request.num_samples = 64;
  request.r = 8;
  request.mesh_area_fraction = 0.01;
  request.seed = 3;
  request.num_threads = 1;
  request.run_id = "serve-ckpt";
  const serve::RunSstaReply reply = c.run_ssta(request);
  EXPECT_GT(reply.mean, 0.0);
  // Tail quantiles come from the worst-delay sketch: ordered and bracketing
  // the mean from above.
  EXPECT_GE(reply.p99, reply.mean);
  EXPECT_GE(reply.p999, reply.p99);
  EXPECT_EQ(reply.resumed_leases, 0u);

  // Same run id with resume: every lease is served from the ledger and the
  // statistics do not move a bit.
  request.resume = true;
  const serve::RunSstaReply resumed = c.run_ssta(request);
  EXPECT_GT(resumed.resumed_leases, 0u);
  EXPECT_EQ(resumed.mean, reply.mean);
  EXPECT_EQ(resumed.sigma, reply.sigma);
  EXPECT_EQ(resumed.p99, reply.p99);
  EXPECT_EQ(resumed.p999, reply.p999);
}

// --- distributed runs (protocol v3) ----------------------------------------

serve::RunSstaRequest dist_ssta_request(const std::string& run_id) {
  serve::RunSstaRequest request;
  request.circuit = "c880";
  request.num_samples = 64;
  request.r = 8;
  request.mesh_area_fraction = 0.01;
  request.seed = 3;
  request.num_threads = 1;
  request.run_id = run_id;
  request.distributed = true;
  request.mc_block_size = 8;
  request.mc_lease_blocks = 2;  // 8 blocks -> 4 leases
  return request;
}

TEST_F(ServeTest, DistributedRunMatchesNonDistributedBitForBit) {
  serve::ServerOptions options;
  options.lease_ttl_ms = 10'000;
  options.heartbeat_interval_ms = 500;
  // The long-running coordinator RunSsta occupies one handler thread for
  // its whole duration; the worker's claim/publish RPCs need their own.
  options.num_threads = 4;
  start(options);

  // Reference: the same workload as an ordinary (coordinator-only)
  // checkpointed run under a different run id.
  serve::Client c = client();
  c.set_deadline_ms(120'000);
  serve::RunSstaRequest local = dist_ssta_request("dist-ref");
  local.distributed = false;
  const serve::RunSstaReply expected = c.run_ssta(local);

  // Distributed coordinator plus one, then two, in-process worker threads.
  // Each worker polls until the run registers, claims leases over the wire,
  // fetches the KLE through kSolveKle, and publishes partials the
  // coordinator folds.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(std::to_string(workers) + " worker(s)");
    const std::string run_id = "dist-run-w" + std::to_string(workers);
    std::vector<serve::WorkerReport> reports(workers);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w)
      threads.emplace_back([&, w] {
        serve::WorkerOptions wopts;
        wopts.unix_path = options_.unix_path;
        wopts.run_id = run_id;
        wopts.worker_id = 42 + w;
        wopts.poll_ms = 25;
        wopts.max_runtime_seconds = 120.0;
        reports[w] = serve::run_worker(wopts);
      });
    const serve::RunSstaReply reply = c.run_ssta(dist_ssta_request(run_id));
    for (std::thread& t : threads) t.join();

    // Index-addressed sampling: remote partials are the bits the
    // coordinator would have computed, so the statistics cannot move at all.
    std::size_t remote_leases = 0;
    for (const serve::WorkerReport& report : reports) {
      EXPECT_TRUE(report.run_complete)
          << "worker " << report.worker_id
          << ": rejected=" << report.publishes_rejected
          << " blocks=" << report.blocks_computed
          << " heartbeats=" << report.heartbeats
          << " retries=" << report.rpc_retries;
      remote_leases += report.leases_computed;
    }
    EXPECT_GE(remote_leases, 1u);
    EXPECT_EQ(reply.mean, expected.mean);
    EXPECT_EQ(reply.sigma, expected.sigma);
    EXPECT_EQ(reply.p99, expected.p99);
    EXPECT_EQ(reply.p999, expected.p999);
  }

  // Resuming a distributed run serves every lease from the ledger: no
  // workers needed, identical bits.
  serve::RunSstaRequest resume = dist_ssta_request("dist-run-w1");
  resume.resume = true;
  const serve::RunSstaReply resumed = c.run_ssta(resume);
  EXPECT_EQ(resumed.resumed_leases, 4u);
  EXPECT_EQ(resumed.mean, expected.mean);
  EXPECT_EQ(resumed.sigma, expected.sigma);
}

TEST_F(ServeTest, ClaimLeasesRejectsWorkerIdZero) {
  start();
  serve::Client c = client();
  serve::ClaimLeasesRequest claim;
  claim.run_id = "whatever";
  claim.worker_id = 0;  // the coordinator's own claim marker
  EXPECT_EQ(code_of([&] { c.claim_leases(claim); }),
            ErrorCode::kPrecondition);
}

TEST_F(ServeTest, DistributedRpcsOnUnknownRunAreTypedNotFatal) {
  start();
  serve::Client c = client();
  // A worker that outlives a coordinator restart speaks about a run the
  // daemon has not (re-)registered yet: every RPC must answer with typed
  // "unknown / not accepted" states it can poll on, never an error.
  serve::ClaimLeasesRequest claim;
  claim.run_id = "no-such-run";
  claim.worker_id = 7;
  EXPECT_EQ(c.claim_leases(claim).run_state, serve::RunState::kUnknown);
  serve::HeartbeatRequest hb;
  hb.run_id = "no-such-run";
  hb.worker_id = 7;
  EXPECT_EQ(c.heartbeat(hb).run_state, serve::RunState::kUnknown);
  serve::RunStatusRequest st;
  st.run_id = "no-such-run";
  EXPECT_EQ(c.run_status(st).run_state, serve::RunState::kUnknown);
  serve::PublishPartialRequest pub;
  pub.run_id = "no-such-run";
  pub.worker_id = 7;
  EXPECT_FALSE(c.publish_partial(pub).accepted);
}

TEST_F(ServeTest, ClaimLeasesConfigHashMismatchIsPrecondition) {
  start();
  serve::Client c = client();
  c.set_deadline_ms(120'000);
  // Complete a distributed run with no workers: the coordinator's local
  // fallback computes everything and the registry keeps a terminal entry.
  c.run_ssta(dist_ssta_request("dist-hash"));
  serve::RunStatusRequest st;
  st.run_id = "dist-hash";
  const serve::RunStatusReply status = c.run_status(st);
  ASSERT_EQ(status.run_state, serve::RunState::kComplete);
  ASSERT_NE(status.config_hash, 0u);

  // A worker carrying a different hash is computing a different workload:
  // its claim must be refused before any lease changes hands.
  serve::ClaimLeasesRequest claim;
  claim.run_id = "dist-hash";
  claim.worker_id = 9;
  claim.config_hash = status.config_hash + 1;
  EXPECT_EQ(code_of([&] { c.claim_leases(claim); }),
            ErrorCode::kPrecondition);
  // The run's own hash (and 0 = "not known yet") are accepted.
  claim.config_hash = status.config_hash;
  EXPECT_EQ(c.claim_leases(claim).run_state, serve::RunState::kComplete);
  claim.config_hash = 0;
  EXPECT_EQ(c.claim_leases(claim).run_state, serve::RunState::kComplete);
}

TEST_F(ServeTest, ServerValidatesLeaseTtlAgainstHeartbeatInterval) {
  // A worker needs several heartbeat opportunities inside one TTL window;
  // 3 * interval must be strictly under the TTL.
  serve::ServerOptions tight;
  tight.lease_ttl_ms = 900;
  tight.heartbeat_interval_ms = 300;
  EXPECT_EQ(code_of([&] { start(tight); }), ErrorCode::kPrecondition);
  serve::ServerOptions zero;
  zero.lease_ttl_ms = 0;
  EXPECT_EQ(code_of([&] { start(zero); }), ErrorCode::kPrecondition);
}

// --- client reconnect semantics --------------------------------------------

TEST_F(ServeTest, StaleConnectionAfterRestartFailsTypedAndFreshOneWorks) {
  start();
  serve::Client stale = client();
  EXPECT_EQ(stale.hello().protocol_version, wire::kProtocolVersion);

  // Restart the daemon on the same socket path (the stopped listener is
  // stale, so the new one may take the path over).
  server_->stop();
  server_ = std::make_unique<serve::Server>(options_);
  server_->start();

  // The old connection is dead: the next RPC surfaces a typed transport
  // error — the cue a distributed worker's retry loop uses to reconnect —
  // and a fresh connection against the same path works immediately.
  stale.set_rpc_timeout_ms(2'000);
  EXPECT_EQ(code_of([&] { stale.hello(); }), ErrorCode::kIoTransient);
  serve::Client fresh = client();
  EXPECT_EQ(fresh.hello().server, options_.server_name);
}

TEST_F(ServeTest, SilentPeerSurfacesAsDeadlineExceededNotAHang) {
  scratch_ = fresh_scratch();
  // A listener that never accepts: connects succeed (backlog), requests
  // vanish. Half-open daemons look exactly like this to a client.
  const std::string silent_path = (scratch_ / "silent.sock").string();
  net::Fd listener = net::listen_unix(silent_path);
  serve::Client c = serve::Client::connect_unix(silent_path);
  c.set_rpc_timeout_ms(200);
  EXPECT_EQ(code_of([&] { c.hello(); }), ErrorCode::kDeadlineExceeded);
}

TEST_F(ServeTest, RpcAfterServerStopIsTypedNotAHang) {
  start();
  serve::Client c = client();
  c.set_rpc_timeout_ms(2'000);
  c.shutdown_server();
  server_->stop();
  serve::HeartbeatRequest hb;
  hb.run_id = "gone";
  hb.worker_id = 3;
  const ErrorCode code = code_of([&] { c.heartbeat(hb); });
  EXPECT_TRUE(code == ErrorCode::kIoTransient ||
              code == ErrorCode::kDeadlineExceeded)
      << "got code " << static_cast<int>(code);
}

// --- determinism: remote == local, byte for byte ---------------------------

TEST_F(ServeTest, SampleBlockBitIdenticalToLocalSampler) {
  start();
  serve::Client c = client();
  const serve::SampleBlockRequest request = sample_request(7, 33);
  const linalg::Matrix remote = c.sample_matrix(request);

  // Local reference: same artifact via a second store handle on the same
  // root, same sampler construction, same index-addressed draw.
  store::KleArtifactStore local(options_.store_root);
  const auto kernel = store::make_kernel(request.config.kernel_id,
                                         request.config.kernel_params);
  const store::FetchResult fetch = local.get_or_compute(request.config, *kernel);
  const field::KleFieldSampler sampler(*fetch.artifact, request.r,
                                       request.locations);
  linalg::Matrix expected;
  sampler.sample_block(request.range, request.stream, expected);

  ASSERT_EQ(remote.rows(), expected.rows());
  ASSERT_EQ(remote.cols(), expected.cols());
  EXPECT_EQ(std::memcmp(remote.data(), expected.data(),
                        remote.rows() * remote.cols() * sizeof(double)),
            0);
}

TEST_F(ServeTest, SampleBlockChunkingPreservesBits) {
  // Server-side chunked generation (tiny sample_chunk_rows) must still be
  // byte-identical: every row is a pure function of its global index.
  serve::ServerOptions options;
  options.sample_chunk_rows = 5;
  start(options);
  serve::Client c = client();
  const serve::SampleBlockRequest request = sample_request(100, 23);
  const linalg::Matrix chunked = c.sample_matrix(request);

  store::KleArtifactStore local(options_.store_root);
  const auto kernel = store::make_kernel(request.config.kernel_id,
                                         request.config.kernel_params);
  const store::FetchResult fetch = local.get_or_compute(request.config, *kernel);
  const field::KleFieldSampler sampler(*fetch.artifact, request.r,
                                       request.locations);
  linalg::Matrix expected;
  sampler.sample_block(request.range, request.stream, expected);
  EXPECT_EQ(std::memcmp(chunked.data(), expected.data(),
                        expected.rows() * expected.cols() * sizeof(double)),
            0);
}

TEST_F(ServeTest, SamplerCacheChargeCoversEverySamplerMatrix) {
  // A budget a few samplers wide and more distinct location sets than fit:
  // the resident samplers' matrices must stay within the budget.
  serve::ServerOptions options;
  options.sampler_cache_bytes = 200'000;
  start(options);
  serve::Client c = client();
  serve::SampleBlockRequest request = sample_request(0, 4);
  for (int set = 0; set < 8; ++set) {
    request.locations = test_locations(400);
    for (geometry::Point2& p : request.locations) p.y -= 0.01 * set;
    c.sample_matrix(request);
  }

  // The one matrix such a sampler holds: its r x N_g reconstruction
  // operator, sized from the public accessor.
  store::KleArtifactStore local(options_.store_root);
  const auto kernel = store::make_kernel(request.config.kernel_id,
                                         request.config.kernel_params);
  const store::FetchResult fetch = local.get_or_compute(request.config, *kernel);
  const field::KleFieldSampler sampler(*fetch.artifact, request.r,
                                       request.locations);
  const linalg::Matrix& op_t = sampler.operator_transposed();
  const std::size_t held = op_t.rows() * op_t.cols() * sizeof(double);

  const store::CacheStats stats = server_->sampler_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  ASSERT_GT(stats.entries, 0u);
  EXPECT_LE(stats.entries * held, stats.byte_budget)
      << stats.entries << " resident samplers of " << held << " bytes";
  // Each resident sampler is charged its one matrix, no more.
  EXPECT_EQ(stats.bytes, stats.entries * held);
}

TEST_F(ServeTest, ConcurrentClientsEachGetExactBits) {
  // The default pool, then one worker: with more clients than workers the
  // requests pile up in the queue and are served one at a time.
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("num_threads = " + std::to_string(workers));
    serve::ServerOptions options;
    options.num_threads = workers;
    start(options);
    {
      serve::Client warm = client();
      serve::SolveKleRequest solve;
      solve.config = small_config();
      warm.solve_kle(solve);
    }

    constexpr int kClients = 4;
    std::vector<linalg::Matrix> results(kClients);
    std::vector<std::thread> threads;
    for (int k = 0; k < kClients; ++k) {
      threads.emplace_back([this, k, &results] {
        serve::Client c = client();
        // Distinct, overlapping ranges on one sampler: each client must
        // get exactly its own rows.
        results[k] = c.sample_matrix(sample_request(k * 10, 20));
      });
    }
    for (std::thread& t : threads) t.join();

    store::KleArtifactStore local(options_.store_root);
    const serve::SampleBlockRequest proto = sample_request(0, 1);
    const auto kernel =
        store::make_kernel(proto.config.kernel_id, proto.config.kernel_params);
    const store::FetchResult fetch =
        local.get_or_compute(proto.config, *kernel);
    const field::KleFieldSampler sampler(*fetch.artifact, proto.r,
                                         proto.locations);
    for (int k = 0; k < kClients; ++k) {
      linalg::Matrix expected;
      sampler.sample_block({static_cast<std::uint64_t>(k) * 10, 20},
                           proto.stream, expected);
      EXPECT_EQ(std::memcmp(results[k].data(), expected.data(),
                            expected.rows() * expected.cols() *
                                sizeof(double)),
                0)
          << "client " << k;
    }
  }
}

// --- cold-key stampede: exactly one eigensolve -----------------------------

TEST_F(ServeTest, ConcurrentColdSolvesDedupToOneEigensolve) {
  start();
  constexpr int kClients = 6;
  std::vector<std::uint32_t> sources(kClients, 999);
  std::vector<std::thread> threads;
  for (int k = 0; k < kClients; ++k) {
    threads.emplace_back([this, k, &sources] {
      serve::Client c = client();
      serve::SolveKleRequest request;
      request.config = small_config();
      sources[k] = c.solve_kle(request).source;
    });
  }
  for (std::thread& t : threads) t.join();

  int solved = 0;
  for (const std::uint32_t source : sources)
    if (source == static_cast<std::uint32_t>(store::FetchSource::kSolved))
      ++solved;
  EXPECT_EQ(solved, 1) << "stampede must resolve to exactly one eigensolve";
  // The losers that waited on the per-key lock are counted by the store.
  EXPECT_GT(server_->store().health().deduped_solves +
                server_->store().cache_stats().hits,
            0u);
}

// --- deadlines, admission control, fault sites -----------------------------

TEST_F(ServeTest, ForcedDeadlineExpiryGivesTypedError) {
  start();
  serve::Client c = client();
  c.hello();  // connection fully up before arming the fault
  robust::ScopedFaultPlan plan("serve_deadline:1");
  EXPECT_EQ(code_of([&] { c.sample_block(sample_request(0, 4)); }),
            ErrorCode::kDeadlineExceeded);
  // Expiry is checked at dequeue, before any work: the expired request
  // looked up no sampler and solved no KLE.
  const store::CacheStats samplers = server_->sampler_cache_stats();
  EXPECT_EQ(samplers.hits + samplers.misses, 0u);
  EXPECT_EQ(samplers.insertions, 0u);
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(options_.store_root))
    EXPECT_NE(entry.path().extension().string(), ".sckl") << entry.path();
  // One-shot fault: the same request works afterwards.
  EXPECT_NO_THROW(c.sample_block(sample_request(0, 4)));
}

TEST_F(ServeTest, ZeroQueueRejectsWithOverloaded) {
  serve::ServerOptions options;
  options.max_queue = 0;  // admission control rejects everything
  start(options);
  serve::Client c = client();
  EXPECT_EQ(code_of([&] { c.hello(); }), ErrorCode::kOverloaded);
}

TEST_F(ServeTest, ReadFaultGivesTransientErrorAndConnectionSurvives) {
  start();
  serve::Client c = client();
  c.hello();
  robust::ScopedFaultPlan plan("serve_read:1");
  EXPECT_EQ(code_of([&] { c.hello(); }), ErrorCode::kIoTransient);
  // The frame was consumed before the injection: the stream is still in
  // sync and the connection keeps working.
  EXPECT_NO_THROW(c.hello());
}

TEST_F(ServeTest, AcceptFaultDropsConnectionButServerSurvives) {
  start();
  robust::ScopedFaultPlan plan("serve_accept:1");
  serve::Client dropped = client();  // accepted, then dropped by the fault
  EXPECT_EQ(code_of([&] { dropped.hello(); }), ErrorCode::kIoTransient);
  serve::Client ok = client();
  EXPECT_NO_THROW(ok.hello());
}

// --- protocol robustness: hostile bytes ------------------------------------

TEST_F(ServeTest, VersionMismatchGetsTypedReplyAndConnectionSurvives) {
  start();
  serve::Client c = client();
  wire::FrameHeader header;
  header.version = 99;
  header.type = static_cast<std::uint32_t>(serve::MessageType::kHello);
  header.request_id = 7;
  const std::vector<std::uint8_t> reply = c.roundtrip_raw(header, {});
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::check_reply_status(r); }),
            ErrorCode::kVersionMismatch);
  EXPECT_NO_THROW(c.hello());  // header layout is version-stable: still in sync
}

TEST_F(ServeTest, UnknownMessageTypeGetsTypedReply) {
  start();
  serve::Client c = client();
  wire::FrameHeader header;
  header.type = 42;
  const std::vector<std::uint8_t> reply = c.roundtrip_raw(header, {});
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::check_reply_status(r); }),
            ErrorCode::kProtocol);
  EXPECT_NO_THROW(c.hello());
}

TEST_F(ServeTest, MalformedPayloadGetsTypedReplyAndConnectionSurvives) {
  start();
  serve::Client c = client();
  wire::FrameHeader header;
  header.type = static_cast<std::uint32_t>(serve::MessageType::kSolveKle);
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  const std::vector<std::uint8_t> reply = c.roundtrip_raw(header, garbage);
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::check_reply_status(r); }),
            ErrorCode::kProtocol);
  EXPECT_NO_THROW(c.hello());
}

TEST_F(ServeTest, TrailingPayloadBytesRejected) {
  start();
  serve::Client c = client();
  wire::FrameHeader header;
  header.type = static_cast<std::uint32_t>(serve::MessageType::kHello);
  const std::vector<std::uint8_t> extra = {0};  // hello body must be empty
  const std::vector<std::uint8_t> reply = c.roundtrip_raw(header, extra);
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::check_reply_status(r); }),
            ErrorCode::kProtocol);
}

TEST_F(ServeTest, OversizedLengthPrefixRejectedWithoutAllocation) {
  serve::ServerOptions options;
  options.max_payload_bytes = 1024;
  start(options);
  net::Fd fd = net::connect_unix(options_.unix_path);

  // Hand-encode a header declaring an absurd payload length.
  std::vector<std::uint8_t> bytes;
  wire::put_u32(bytes, wire::kFrameMagic);
  wire::put_u32(bytes, wire::kProtocolVersion);
  wire::put_u32(bytes, static_cast<std::uint32_t>(serve::MessageType::kHello));
  wire::put_u32(bytes, 0);                        // deadline_ms
  wire::put_u64(bytes, 77);                       // request id
  wire::put_u64(bytes, std::uint64_t{1} << 60);   // hostile payload size
  net::write_all(fd.get(), bytes.data(), bytes.size());

  wire::FrameHeader header;
  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(wire::read_frame(fd.get(), 1 << 20, header, reply));
  EXPECT_EQ(header.request_id, 77u);  // parsed far enough to correlate
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::check_reply_status(r); }),
            ErrorCode::kProtocol);
  // The stream is beyond repair: the server closes it...
  EXPECT_FALSE(wire::read_frame(fd.get(), 1 << 20, header, reply));
  // ...but keeps serving new connections.
  serve::Client c = client();
  EXPECT_NO_THROW(c.hello());
}

TEST_F(ServeTest, GarbageMagicDropsConnectionServerSurvives) {
  start();
  net::Fd fd = net::connect_unix(options_.unix_path);
  const char garbage[64] = "this is definitely not a SCKF frame............";
  net::write_all(fd.get(), garbage, sizeof(garbage));
  // The server replies with a protocol error (or just closes, depending on
  // how much it parsed) and drops the connection — it must not crash.
  wire::FrameHeader header;
  std::vector<std::uint8_t> reply;
  try {
    while (wire::read_frame(fd.get(), 1 << 20, header, reply)) {
    }
  } catch (const Error&) {
  }
  serve::Client c = client();
  EXPECT_NO_THROW(c.hello());
}

TEST_F(ServeTest, TruncatedFrameMidHeaderServerSurvives) {
  start();
  {
    net::Fd fd = net::connect_unix(options_.unix_path);
    std::vector<std::uint8_t> bytes;
    wire::put_u32(bytes, wire::kFrameMagic);
    wire::put_u32(bytes, wire::kProtocolVersion);
    net::write_all(fd.get(), bytes.data(), bytes.size());
    // Close mid-header: the reader thread sees EOF inside the frame.
  }
  serve::Client c = client();
  EXPECT_NO_THROW(c.hello());
}

TEST_F(ServeTest, CrcMismatchRejected) {
  start();
  net::Fd fd = net::connect_unix(options_.unix_path);
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  std::vector<std::uint8_t> bytes;
  wire::put_u32(bytes, wire::kFrameMagic);
  wire::put_u32(bytes, wire::kProtocolVersion);
  wire::put_u32(bytes, static_cast<std::uint32_t>(serve::MessageType::kHello));
  wire::put_u32(bytes, 0);
  wire::put_u64(bytes, 5);
  wire::put_u64(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  wire::put_u32(bytes, 0xDEADBEEF);  // wrong CRC
  net::write_all(fd.get(), bytes.data(), bytes.size());

  wire::FrameHeader header;
  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(wire::read_frame(fd.get(), 1 << 20, header, reply));
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::check_reply_status(r); }),
            ErrorCode::kProtocol);
  serve::Client c = client();
  EXPECT_NO_THROW(c.hello());
}

TEST_F(ServeTest, HostileLocationCountRejectedWithoutAllocation) {
  // A location count near 2^64 once wrapped `count * 16` to a small value
  // that passed the bounds check, and the subsequent resize(count) threw a
  // non-sckl exception that killed the whole daemon. It must be a typed
  // protocol error on a surviving server.
  start();
  serve::Client c = client();
  std::vector<std::uint8_t> payload;
  store::append_artifact_config(payload, small_config());
  wire::put_u64(payload, 8);                             // r
  wire::put_u64(payload, (std::uint64_t{1} << 62) + 1);  // hostile count
  payload.resize(payload.size() + 32, 0);  // wrapped product would "fit"
  wire::FrameHeader header;
  header.type = static_cast<std::uint32_t>(serve::MessageType::kSampleBlock);
  const std::vector<std::uint8_t> reply = c.roundtrip_raw(header, payload);
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::check_reply_status(r); }),
            ErrorCode::kProtocol);
  EXPECT_NO_THROW(c.hello());
}

TEST_F(ServeTest, HostileKernelParamCountRejectedWithoutAllocation) {
  // Same wrap in u32 arithmetic: num_params = 2^30 made `num_params * 8`
  // wrap to 0, pass the check, and attempt a multi-GB resize.
  start();
  serve::Client c = client();
  std::vector<std::uint8_t> payload;
  wire::put_string(payload, "gaussian");
  wire::put_u32(payload, std::uint32_t{1} << 30);  // hostile param count
  payload.resize(payload.size() + 32, 0);
  wire::FrameHeader header;
  header.type = static_cast<std::uint32_t>(serve::MessageType::kSolveKle);
  const std::vector<std::uint8_t> reply = c.roundtrip_raw(header, payload);
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::check_reply_status(r); }),
            ErrorCode::kProtocol);
  EXPECT_NO_THROW(c.hello());
}

TEST(ServeProtocolTest, ClientRejectsHostileSampleReplyShape) {
  // Client-side twin: a hostile reply header whose rows * cols * 8 wraps
  // past the check must throw a typed error, not resize(2^61).
  std::vector<std::uint8_t> reply;
  wire::put_u32(reply, 0);                             // status: success
  wire::put_u64(reply, (std::uint64_t{1} << 61) + 1);  // rows
  wire::put_u64(reply, 1);                             // cols
  reply.resize(reply.size() + 32, 0);
  wire::ByteReader r(reply.data(), reply.size(), ErrorCode::kProtocol,
                     "reply");
  EXPECT_EQ(code_of([&] { serve::decode_sample_block_reply(r); }),
            ErrorCode::kProtocol);
}

TEST_F(ServeTest, SampleRowCountAboveServerLimitRejected) {
  serve::ServerOptions options;
  options.max_sample_rows = 16;
  start(options);
  serve::Client c = client();
  EXPECT_EQ(code_of([&] { c.sample_block(sample_request(0, 17)); }),
            ErrorCode::kPrecondition);
  // At the limit the request runs normally (and the daemon survived).
  EXPECT_NO_THROW(c.sample_block(sample_request(0, 16)));
}

// --- connection lifecycle --------------------------------------------------

TEST_F(ServeTest, DisconnectedClientsAreReapedNotAccumulated) {
  // A long-running daemon serving short-lived connections (each CLI call is
  // one) must release the fd and registry slot at disconnect, not at
  // stop() — otherwise accept() hits EMFILE after ~1000 clients.
  start();
  for (int i = 0; i < 16; ++i) {
    serve::Client c = client();
    c.hello();
  }  // every client closed here
  bool reaped = false;
  for (int i = 0; i < 200 && !reaped; ++i) {
    reaped = server_->open_connections() == 0;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reaped) << server_->open_connections()
                      << " connections still registered after disconnect";
  EXPECT_NE(server_->stats_json().find("\"open_connections\""),
            std::string::npos);
}

TEST_F(ServeTest, ListenUnixRefusesToStealALiveSocketPath) {
  start();
  // A second daemon on the same path must fail loudly instead of silently
  // unlinking the live endpoint out from under this server.
  EXPECT_EQ(code_of([&] { net::listen_unix(options_.unix_path); }),
            ErrorCode::kPrecondition);
  serve::Client c = client();  // the original listener is untouched
  EXPECT_NO_THROW(c.hello());
}

// --- graceful shutdown -----------------------------------------------------

TEST_F(ServeTest, ShutdownRequestIsAcknowledgedAndFlagged) {
  start();
  serve::Client c = client();
  EXPECT_FALSE(server_->stop_requested());
  c.shutdown_server();  // acknowledged before the drain begins
  EXPECT_TRUE(server_->wait_for_stop_request(2000));
  server_->stop();
  // The socket is unlinked after a graceful stop.
  EXPECT_FALSE(std::filesystem::exists(options_.unix_path));
}

#if defined(__unix__) || defined(__APPLE__)

/// run_daemon in a forked child; SIGTERM mid-load must drain and exit 0,
/// and the socket path must be immediately reusable by a restarted daemon.
TEST(ServeDaemonTest, SigtermUnderLoadDrainsExitsZeroAndRestarts) {
  const std::filesystem::path scratch = fresh_scratch();
  const std::string socket = (scratch / "daemon.sock").string();
  const std::string root = (scratch / "store").string();

  const auto spawn_daemon = [&]() -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      serve::ServerOptions options;
      options.unix_path = socket;
      options.store_root = root;
      options.drain_ms = 5000;
      // _Exit: never run the parent's atexit/gtest teardown in the child.
      ::_Exit(serve::run_daemon(options, /*announce=*/false));
    }
    return pid;
  };

  const auto wait_for_socket = [&] {
    for (int i = 0; i < 200; ++i) {
      try {
        serve::Client::connect_unix(socket).hello();
        return true;
      } catch (const Error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    return false;
  };

  const pid_t first = spawn_daemon();
  ASSERT_GT(first, 0);
  ASSERT_TRUE(wait_for_socket());

  // Load: clients hammering the daemon when the SIGTERM lands. Errors are
  // expected once the server drains; crashes of the *daemon* are not.
  std::atomic<bool> stop_load{false};
  std::atomic<int> completed{0};
  std::vector<std::thread> load;
  for (int k = 0; k < 3; ++k) {
    load.emplace_back([&] {
      while (!stop_load.load()) {
        try {
          serve::Client c = serve::Client::connect_unix(socket);
          serve::SolveKleRequest request;
          request.config = small_config();
          c.solve_kle(request);
          completed.fetch_add(1);
        } catch (const Error&) {
          break;  // server is draining / gone
        }
      }
    });
  }
  // Let the load actually arrive before the signal.
  for (int i = 0; i < 100 && completed.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(completed.load(), 0);

  ASSERT_EQ(::kill(first, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first, &status, 0), first);
  stop_load.store(true);
  for (std::thread& t : load) t.join();
  ASSERT_TRUE(WIFEXITED(status)) << "daemon must exit, not crash";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "SIGTERM under load must exit 0";

  // Restart on the same socket path: the graceful exit left it usable.
  const pid_t second = spawn_daemon();
  ASSERT_GT(second, 0);
  ASSERT_TRUE(wait_for_socket());
  {
    serve::Client c = serve::Client::connect_unix(socket);
    serve::SolveKleRequest request;
    request.config = small_config();
    // Warm start: the artifact persisted by the first daemon is reused.
    EXPECT_NE(c.solve_kle(request).source,
              static_cast<std::uint32_t>(store::FetchSource::kSolved));
  }
  ASSERT_EQ(::kill(second, SIGTERM), 0);
  ASSERT_EQ(::waitpid(second, &status, 0), second);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::filesystem::remove_all(scratch);
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace sckl
