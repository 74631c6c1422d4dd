#include "serve/worker.h"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/error.h"
#include "field/kle_sampler.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "serve/client.h"
#include "ssta/experiment.h"
#include "ssta/mc_ssta.h"
#include "store/kle_io.h"

namespace sckl::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The workload a worker reconstructed from a ClaimLeases reply: the exact
/// pipeline + sampler + options needed to make lease partials whose bits
/// match the coordinator's own compute path.
struct Workload {
  std::uint64_t config_hash = 0;
  std::unique_ptr<ssta::ExperimentPipeline> pipeline;
  std::unique_ptr<field::KleFieldSampler> sampler;
  ssta::McSstaOptions mc;
  std::size_t num_endpoints = 0;
  std::uint64_t lease_ttl_ms = 0;
  std::uint64_t heartbeat_interval_ms = 0;
};

/// One worker session: the connection, the retry wrapper, and the
/// telemetry. Kept as a struct so the RPC lambdas stay small.
struct Session {
  const WorkerOptions& options;
  WorkerReport& report;
  std::optional<Client> client;

  Client& connected() {
    if (!client.has_value()) {
      client = options.unix_path.empty()
                   ? Client::connect_tcp(options.tcp_port)
                   : Client::connect_unix(options.unix_path);
      client->set_rpc_timeout_ms(options.rpc_timeout_ms);
      client->set_deadline_ms(
          static_cast<std::uint32_t>(options.rpc_timeout_ms));
    }
    return *client;
  }

  /// Runs one RPC under the bounded/jittered retry policy, reconnecting on
  /// transport-level failures (kIoTransient, kDeadlineExceeded). Typed
  /// server errors (kPrecondition and friends) propagate immediately —
  /// they describe the request, not the transport.
  template <typename Fn>
  auto rpc(Fn&& fn) -> decltype(fn(std::declval<Client&>())) {
    robust::RetryStats stats;
    const auto result = robust::retry_bounded(
        options.rpc_retry,
        [&]() -> decltype(fn(std::declval<Client&>())) {
          if (robust::fault_injected(robust::FaultSite::kMcRpcTransient)) {
            client.reset();
            throw Error(
                "injected transport failure at fault site 'mc_rpc_transient'",
                ErrorCode::kIoTransient);
          }
          try {
            return fn(connected());
          } catch (const Error& e) {
            if (e.code() == ErrorCode::kIoTransient ||
                e.code() == ErrorCode::kDeadlineExceeded) {
              // The connection is in an unknown state (half-written frame,
              // stale reply in flight): drop it so the retry reconnects.
              client.reset();
              obs::counter("sckl.ssta.mc.remote.worker_reconnects").add(1);
            }
            throw;
          }
        },
        [](const Error& e) {
          return e.code() == ErrorCode::kIoTransient ||
                 e.code() == ErrorCode::kDeadlineExceeded;
        },
        &stats);
    report.rpc_retries += static_cast<std::size_t>(stats.retried);
    return result;
  }
};

/// Builds the workload from a kRunning ClaimLeases reply: the pipeline
/// from the coordinator's own RunSsta request, through the same
/// experiment_config the coordinator used, and the sampling geometry
/// verbatim from the run's ledger header. Re-deriving any value (the MC
/// seed, the resolved eigenpair count...) risks silently computing
/// different bits than the coordinator.
Workload build_workload(Session& session, const ClaimLeasesReply& spec) {
  const RunSstaRequest& request = spec.workload;
  const ssta::LedgerHeader& geometry = spec.geometry;
  Workload w;
  w.config_hash = geometry.workload_key;
  w.lease_ttl_ms = spec.lease_ttl_ms;
  w.heartbeat_interval_ms = spec.heartbeat_interval_ms;
  w.pipeline =
      std::make_unique<ssta::ExperimentPipeline>(experiment_config(request));

  // The KLE comes over the wire (want_artifact), not from a shared
  // filesystem: the worker may be on another machine entirely.
  SolveKleRequest solve;
  solve.config = w.pipeline->artifact_config(
      static_cast<std::size_t>(request.num_eigenpairs));
  solve.want_artifact = true;
  const SolveKleReply solved =
      session.rpc([&](Client& c) { return c.solve_kle(solve); });
  w.sampler = std::make_unique<field::KleFieldSampler>(
      store::decode_kle(solved.artifact).kle,
      static_cast<std::size_t>(request.r), w.pipeline->gate_locations());

  w.num_endpoints = static_cast<std::size_t>(geometry.num_endpoints);
  if (w.pipeline->engine().num_endpoints() != w.num_endpoints)
    throw Error("mc worker: rebuilt pipeline has " +
                    std::to_string(w.pipeline->engine().num_endpoints()) +
                    " endpoints but the coordinator's run has " +
                    std::to_string(w.num_endpoints) +
                    " — the workload spec did not reproduce the circuit",
                ErrorCode::kPrecondition);

  w.mc.num_samples = static_cast<std::size_t>(geometry.num_samples);
  w.mc.block_size = static_cast<std::size_t>(geometry.block_size);
  w.mc.seed = geometry.seed;
  w.mc.sketch_capacity = static_cast<std::size_t>(geometry.sketch_capacity);
  w.mc.num_threads = 1;
  return w;
}

}  // namespace

WorkerReport run_worker(const WorkerOptions& options) {
  require(!options.run_id.empty(), "mc worker: run_id is required");
  require(options.rpc_timeout_ms > 0, "mc worker: rpc_timeout_ms must be > 0");
  require(options.max_leases_per_claim >= 1,
          "mc worker: max_leases_per_claim must be >= 1");

  WorkerReport report;
#if defined(__unix__) || defined(__APPLE__)
  report.worker_id = options.worker_id != 0
                         ? options.worker_id
                         : static_cast<std::uint64_t>(::getpid());
#else
  report.worker_id = options.worker_id;
#endif
  require(report.worker_id != 0, "mc worker: worker_id must be nonzero");

  obs::Span worker_span("serve.mc_worker");
  worker_span.set_tag(report.worker_id);
  obs::counter("sckl.ssta.mc.remote.workers").add(1);
  obs::Stopwatch runtime;

  Session session{options, report, std::nullopt};
  std::optional<Workload> workload;

  const auto out_of_budget = [&] {
    return options.max_runtime_seconds > 0.0 &&
           runtime.seconds() > options.max_runtime_seconds;
  };

  while (!out_of_budget()) {
    ClaimLeasesRequest claim;
    claim.run_id = options.run_id;
    claim.worker_id = report.worker_id;
    claim.config_hash = workload.has_value() ? workload->config_hash : 0;
    claim.max_leases = options.max_leases_per_claim;
    const ClaimLeasesReply granted =
        session.rpc([&](Client& c) { return c.claim_leases(claim); });

    if (granted.run_state == RunState::kComplete) {
      report.run_complete = true;
      break;
    }
    if (granted.run_state == RunState::kUnknown) {
      // The coordinator may simply not have started (or restarted) yet.
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
      continue;
    }
    if (!workload.has_value()) workload = build_workload(session, granted);
    if (granted.leases.empty()) {
      // Everything claimable is held by live claimers; wait for reclaims.
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
      continue;
    }

    const ssta::ParameterSamplers samplers{
        workload->sampler.get(), workload->sampler.get(),
        workload->sampler.get(), workload->sampler.get()};
    const auto heartbeat_every =
        std::chrono::milliseconds(workload->heartbeat_interval_ms);
    Clock::time_point last_heartbeat = Clock::now();

    ssta::detail::BlockScratch scratch;
    for (const WireLease& lease : granted.leases) {
      obs::Span lease_span("serve.mc_worker.lease");
      lease_span.set_tag(lease.index);
      if (robust::fault_injected(robust::FaultSite::kMcWorkerStall)) {
        // A stalled worker: sleep through the whole TTL without a single
        // heartbeat. The coordinator reclaims the lease; the publish below
        // comes back rejected and the partial is discarded.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            workload->lease_ttl_ms + workload->lease_ttl_ms / 4 + 1));
      }

      // The heartbeat check runs before each block; a run that stopped
      // being kRunning (finished or restarting) abandons the lease, whose
      // incomplete partial is never published.
      const std::optional<ssta::detail::BlockPartial> lease_partial =
          ssta::detail::compute_lease_partial(
              workload->pipeline->engine(), samplers, workload->mc,
              static_cast<std::size_t>(lease.first_block),
              static_cast<std::size_t>(lease.num_blocks),
              workload->num_endpoints, scratch, nullptr, [&] {
                if (Clock::now() - last_heartbeat >= heartbeat_every) {
                  HeartbeatRequest hb;
                  hb.run_id = options.run_id;
                  hb.worker_id = report.worker_id;
                  hb.config_hash = workload->config_hash;
                  const HeartbeatReply pulse =
                      session.rpc([&](Client& c) { return c.heartbeat(hb); });
                  ++report.heartbeats;
                  obs::counter("sckl.ssta.mc.remote.worker_heartbeats").add(1);
                  last_heartbeat = Clock::now();
                  if (pulse.run_state != RunState::kRunning) return false;
                }
                ++report.blocks_computed;
                return true;
              });
      if (!lease_partial.has_value()) break;

      PublishPartialRequest publish;
      publish.run_id = options.run_id;
      publish.worker_id = report.worker_id;
      publish.config_hash = workload->config_hash;
      publish.lease = lease;
      lease_partial->encode(publish.partial);
      const PublishPartialReply outcome =
          session.rpc([&](Client& c) { return c.publish_partial(publish); });
      if (outcome.accepted) {
        ++report.leases_computed;
        obs::counter("sckl.ssta.mc.remote.worker_published").add(1);
      } else {
        ++report.publishes_rejected;
        obs::counter("sckl.ssta.mc.remote.worker_rejected").add(1);
      }
    }
  }
  return report;
}

}  // namespace sckl::serve
