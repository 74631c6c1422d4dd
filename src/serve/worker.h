// Remote Monte Carlo worker: the claim/compute/publish half of the
// distributed checkpointed runner (protocol v4, DESIGN.md §12).
//
// A worker is stateless by design. Everything it needs to compute a lease
// arrives in the ClaimLeases reply: the coordinator's own RunSsta request
// with m resolved, from which experiment_config() rebuilds the exact
// ExperimentPipeline the coordinator runs, and the run's LedgerHeader,
// whose sampling geometry (num_samples, block_size, mc seed, sketch
// capacity) the worker uses verbatim. The KLE itself is fetched through
// the ordinary kSolveKle message (want_artifact), so the worker never
// touches the coordinator's filesystem. Because every sample is a pure
// function of (seed, parameter, global index), the partial a worker
// publishes is bit for bit the partial the coordinator would have computed
// locally — which is why kills, reclaims, and duplicated publishes cannot
// change the final statistics.
//
// Failure behaviour:
//   - Every RPC runs under a bounded, jittered retry (robust/retry.h) that
//     reconnects on kIoTransient / kDeadlineExceeded, so the worker rides
//     out coordinator restarts (the resumed run re-registers under the
//     same run_id) and injected transport faults (`mc_rpc_transient`).
//   - While computing, the worker heartbeats every heartbeat_interval_ms
//     (the cadence the coordinator advertises), keeping its leases alive.
//     A stalled worker (`mc_worker_stall` sleeps through >TTL without
//     heartbeating) finds its publish rejected — the lease was reclaimed —
//     discards the partial, and claims again.
//   - An unknown run is polled (the coordinator may not have started yet);
//     a kComplete run, or an exhausted runtime budget, ends the worker.
//   - A config-hash mismatch is a kPrecondition error and is fatal: this
//     worker is computing a different workload.
#pragma once

#include <cstdint>
#include <string>

#include "robust/retry.h"

namespace sckl::serve {

/// Connection + behaviour knobs of one run_worker call.
struct WorkerOptions {
  /// Coordinator endpoint: a unix socket path, or (when empty) loopback
  /// TCP on tcp_port.
  std::string unix_path;
  std::uint16_t tcp_port = 0;

  /// The distributed run to work on (required).
  std::string run_id;
  /// Nonzero worker identity for lease ownership and heartbeats; 0 derives
  /// one from the process id. Must differ between concurrent workers.
  std::uint64_t worker_id = 0;

  /// Leases requested per ClaimLeases round trip.
  std::size_t max_leases_per_claim = 1;
  /// Sleep between polls while the run is unknown or fully claimed.
  int poll_ms = 200;
  /// Client-side budget for one RPC reply (also sent as the server-side
  /// deadline); a silent coordinator turns into kDeadlineExceeded and a
  /// reconnect instead of a hang.
  int rpc_timeout_ms = 5'000;
  /// Retry/reconnect pacing for every RPC. The default rides out a
  /// coordinator restart: many attempts, capped backoff, 50% jitter so a
  /// worker fleet doesn't reconnect in lockstep.
  robust::RetryPolicy rpc_retry{/*max_attempts=*/20,
                                /*initial_backoff_seconds=*/0.02,
                                /*backoff_growth=*/2.0,
                                /*max_backoff_seconds=*/0.5,
                                /*jitter=*/0.5};
  /// Overall wall-clock budget; 0 = run until the run completes (or an
  /// RPC exhausts its retries).
  double max_runtime_seconds = 0.0;
};

/// What one run_worker call did, for tests and the chaos harness.
struct WorkerReport {
  std::uint64_t worker_id = 0;        // resolved identity actually used
  std::size_t leases_computed = 0;    // published and accepted
  std::size_t blocks_computed = 0;
  std::size_t publishes_rejected = 0; // lease expired/reclaimed under us
  std::size_t heartbeats = 0;         // successful heartbeat RPCs
  std::size_t rpc_retries = 0;        // transient failures absorbed
  bool run_complete = false;          // coordinator reported kComplete
};

/// Runs the worker loop against the coordinator until the run completes,
/// the runtime budget expires, or an unrecoverable error (exhausted
/// retries, config mismatch) throws.
WorkerReport run_worker(const WorkerOptions& options);

}  // namespace sckl::serve
