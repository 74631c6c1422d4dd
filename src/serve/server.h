// The sckl_serve daemon core: a long-running KLE/SSTA server.
//
// The paper's "decompose once, sample forever" economics only pay off when
// many consumers share the decompositions. The artifact store (src/store)
// already shares them across *processes* on one filesystem; this server
// shares them across *clients* of one resident process: a single
// KleArtifactStore + in-memory LRU stays hot for the process lifetime, and
// remote clients reach it over a unix-domain socket (optionally loopback
// TCP) speaking the framed protocol of serve/protocol.h.
//
// Architecture (all pieces reuse existing subsystems — nothing here solves,
// samples, or times anything itself):
//
//   accept threads   one per listener; poll + accept, spawn a connection
//                    thread per client. Fault site `serve_accept` drops the
//                    next accepted connection on the floor.
//   connection       reads frames, validates version/type/payload (typed
//   threads          error replies on anything malformed — protocol errors
//                    never crash the daemon or kill the connection), parses
//                    the request body, and enqueues a work item. Fault site
//                    `serve_read` turns the next successfully read frame
//                    into a transient-I/O error reply. Readers are detached
//                    and reap themselves on disconnect: the Connection
//                    leaves the registry immediately and its fd closes with
//                    the last shared_ptr, so a daemon serving short-lived
//                    connections never accumulates fds or thread handles.
//   request queue    bounded (ServerOptions::max_queue): admission control.
//                    A full queue rejects immediately with kOverloaded —
//                    predictable backpressure instead of unbounded latency.
//   worker pool      one common/ThreadPool (the same pool type the MC-SSTA
//                    engine uses) runs every request. Each worker pops one
//                    request at a time, in arrival order, and runs it
//                    through execute() whatever its message type. A
//                    SampleBlock takes its sampler from an LRU keyed by
//                    (KLE key, r, locations); a burst of cold requests for
//                    one key builds it at most once per worker.
//   deadlines        per-request (frame header deadline_ms, else the server
//                    default). Checked at dequeue, before any work, then
//                    between sample chunks and between Monte Carlo blocks
//                    (the cancelled callback of McSstaOptions); an expired
//                    request gets a typed kDeadlineExceeded reply. Fault site
//                    `serve_deadline` forces the next check to report
//                    expiry, deterministically.
//
// Determinism: SampleBlock replies are generated with the same stateless
// index-addressed samplers as local code, so the returned doubles are
// bit-identical to a local sample_block for the same (key, range, stream) —
// regardless of chunking or which worker served the request.
//
// Graceful shutdown: stop() (or a SIGTERM via serve/daemon.h) stops
// accepting, drains queued + in-flight requests bounded by drain_ms,
// replies kOverloaded to anything still queued after the budget, joins all
// threads, and removes the unix socket path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "field/kle_sampler.h"
#include "serve/protocol.h"
#include "ssta/experiment.h"
#include "ssta/lease_ledger.h"
#include "store/artifact_store.h"

namespace sckl::serve {

/// Identification string every Server returns in its Hello reply.
inline constexpr const char* kServerName = "sckl_serve/1";

/// Tuning knobs of one Server.
struct ServerOptions {
  /// Unix-domain socket path to listen on; empty = no unix listener.
  std::string unix_path;
  /// Additionally listen on loopback TCP (port 0 = ephemeral; the bound
  /// port is available from Server::tcp_port() after start()).
  bool tcp = false;
  std::uint16_t tcp_port = 0;

  /// Root of the process-wide artifact store (required). The store keeps
  /// its default in-memory cache budget (store::StoreOptions).
  std::string store_root;

  /// Worker threads executing requests: 0 = auto (SCKL_THREADS / cores).
  std::size_t num_threads = 0;
  /// Admission control: queued-request bound. Excess is rejected with
  /// kOverloaded instead of queueing unboundedly.
  std::size_t max_queue = 64;
  /// Largest request payload accepted; a bigger declared length is a
  /// protocol error (and never a giant allocation). Replies obey the same
  /// bound: a SampleBlock whose reply would exceed it is rejected at
  /// decode time.
  std::size_t max_payload_bytes = std::size_t{64} << 20;
  /// Largest SampleBlock row count accepted per request; bigger requests
  /// are rejected with kPrecondition at decode time, before a worker
  /// reserves rows x locations x 8 bytes for the reply. Split larger
  /// draws across requests (chunking is bit-transparent).
  std::size_t max_sample_rows = std::size_t{1} << 20;
  /// Deadline applied to requests that do not carry one (0 = none).
  /// Nonzero by default so a runaway request can never pin a worker
  /// forever, which would also make stop() overshoot drain_ms.
  std::uint32_t default_deadline_ms = 30'000;

  /// LRU byte budget for constructed KleFieldSamplers, keyed by
  /// (artifact key, r, locations).
  std::size_t sampler_cache_bytes = std::size_t{64} << 20;
  /// Rows generated between deadline checks inside one SampleBlock.
  std::size_t sample_chunk_rows = 2048;

  /// Graceful-shutdown budget for draining queued + in-flight requests.
  int drain_ms = 2000;

  /// Distributed Monte Carlo: lease time-to-live handed to remote
  /// workers, and the heartbeat cadence the ClaimLeases reply advertises.
  /// The constructor enforces heartbeat_interval_ms * 3 < lease_ttl_ms so a
  /// healthy worker always gets at least two extension opportunities before
  /// its leases can be reclaimed.
  std::uint64_t lease_ttl_ms = 300'000;
  std::uint64_t heartbeat_interval_ms = 1'000;
};

/// One running server instance. start() spawns the listener/worker threads
/// and returns; stop() drains and joins everything (also run by the dtor).
class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns accept + worker threads. Throws on bind
  /// failure. Clients may connect as soon as this returns.
  void start();

  /// Graceful shutdown: stop accepting, drain bounded by drain_ms, reply
  /// kOverloaded to anything still queued, join all threads, unlink the
  /// unix socket. Idempotent; also invoked by the destructor.
  void stop();

  /// Asks the owner's event loop to shut down (set by a kShutdown request
  /// or a signal handler's notify). Does not itself stop the server —
  /// whoever owns the Server observes this and calls stop().
  void request_stop();
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed);
  }
  /// Blocks up to timeout_ms for request_stop(); true when requested.
  bool wait_for_stop_request(int timeout_ms);

  /// Bound TCP port (0 when TCP is disabled); valid after start().
  std::uint16_t tcp_port() const { return bound_tcp_port_; }

  const ServerOptions& options() const { return options_; }

  /// The process-wide artifact store (tests read health()/cache_stats()).
  store::KleArtifactStore& store() { return *store_; }

  /// Counters of the constructed-sampler LRU (bench/tests read hit_rate()).
  store::CacheStats sampler_cache_stats() const {
    return sampler_cache_.stats();
  }

  /// Currently registered client connections (disconnected clients leave
  /// immediately; the leak test polls this toward zero).
  std::size_t open_connections() const {
    std::lock_guard<std::mutex> lock(conn_mu_);
    return connections_.size();
  }

  /// The sckl-serve-stats-v1 document served by kStats: store health +
  /// cache stats + sampler-cache stats + the sckl.* metrics registry.
  std::string stats_json();

 private:
  /// Per-client connection state shared between its reader thread and the
  /// workers replying on it.
  struct Connection {
    net::Fd fd;
    std::mutex write_mu;  // one reply frame at a time
  };

  /// A parsed, admitted request waiting for (or being run by) a worker.
  struct Request {
    std::shared_ptr<Connection> conn;
    wire::FrameHeader header;
    MessageType type = MessageType::kHello;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    // Exactly the member matching `type` is populated.
    std::optional<SolveKleRequest> solve;
    std::optional<SampleBlockRequest> sample;
    std::optional<RunSstaRequest> ssta;
    std::optional<ClaimLeasesRequest> claim;
    std::optional<PublishPartialRequest> publish;
    std::optional<HeartbeatRequest> heartbeat;
    std::optional<RunStatusRequest> status;
    std::uint64_t sampler_key = 0;  // SampleBlock: sampler identity hash
  };

  /// A cached, mutex-serialized SSTA pipeline (one per distinct config).
  struct PipelineEntry {
    std::mutex mu;
    std::unique_ptr<ssta::ExperimentPipeline> pipeline;
  };

  /// One distributed run's registry entry. The LeaseCoordinator lives on
  /// the coordinating RunSsta worker's stack (inside run_kle); this entry
  /// borrows it for the run's duration. `coordinator` is only touched under
  /// `mu`, and the share hook nulls it (still under `mu`) before the
  /// coordinator is destroyed — a claim/publish/heartbeat handler holding
  /// the shared_ptr either sees a live pointer and finishes before the
  /// unregister can proceed, or sees nullptr and answers from the terminal
  /// state. `request` and `header` are what a ClaimLeases reply sends a
  /// worker, valid for the entry's lifetime.
  struct DistRun {
    std::mutex mu;
    ssta::LeaseCoordinator* coordinator = nullptr;
    RunSstaRequest request;     // the coordinator's request, m resolved
    ssta::LedgerHeader header;  // geometry; workload_key is the config hash
    bool complete = false;  // coordinator finished and unregistered
  };

  void accept_loop(int listen_fd);
  void connection_loop(std::shared_ptr<Connection> conn);
  void worker_loop();

  /// Queues the request; false when the queue is full or draining.
  bool enqueue(Request&& request);

  /// True when the request's deadline has passed (or the serve_deadline
  /// fault site injects an expiry).
  static bool deadline_expired(const Request& request);

  void execute(Request& request);
  /// Generates a SampleBlock reply chunk by chunk and sends it.
  void do_sample_block(const Request& request);
  SolveKleReply do_solve(const SolveKleRequest& request);
  RunSstaReply do_run_ssta(RunSstaRequest request, const Request& envelope);
  ClaimLeasesReply do_claim_leases(const ClaimLeasesRequest& request);
  PublishPartialReply do_publish_partial(const PublishPartialRequest& request);
  HeartbeatReply do_heartbeat(const HeartbeatRequest& request);
  RunStatusReply do_run_status(const RunStatusRequest& request);

  /// Looks up a registered distributed run (nullptr when unknown). The
  /// caller must lock the entry's own mutex before touching `coordinator`.
  std::shared_ptr<DistRun> find_dist_run(const std::string& run_id);
  /// Validates the worker's config_hash against the run's (0 = not known
  /// yet, always accepted); throws kPrecondition on mismatch.
  static void check_config_hash(const DistRun& run, std::uint64_t claimed);
  /// The sampler of a SampleBlock, cached under the request's `sampler_key`
  /// (the sampler identity computed when the request was read).
  std::shared_ptr<const field::KleFieldSampler> sampler_for(
      std::uint64_t sampler_key, const SampleBlockRequest& request);

  void send_payload(const Request& request,
                    const std::vector<std::uint8_t>& payload, bool is_error);
  void reply_error(const Request& request, ErrorCode code,
                   const std::string& message);

  ServerOptions options_;
  std::unique_ptr<store::KleArtifactStore> store_;
  store::LruCache<std::uint64_t, field::KleFieldSampler> sampler_cache_;

  net::Fd unix_listener_;
  net::Fd tcp_listener_;
  std::uint16_t bound_tcp_port_ = 0;

  std::vector<std::thread> accept_threads_;
  std::thread dispatcher_;

  // Reader threads are detached and deregister themselves on exit
  // (decrementing active_readers_ and notifying readers_cv_ under
  // conn_mu_); stop() waits for the count to reach zero instead of
  // joining, so per-connection state never outlives the connection.
  mutable std::mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::size_t active_readers_ = 0;
  std::condition_variable readers_cv_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;    // workers wait for arrivals
  std::condition_variable drained_cv_;  // stop() waits for quiescence
  std::deque<Request> queue_;
  std::size_t in_flight_ = 0;

  std::mutex pipeline_mu_;
  std::map<std::uint64_t, std::shared_ptr<PipelineEntry>> pipelines_;

  // Distributed-run registry: run_id -> live entry. Entries persist after
  // the coordinator finishes (complete=true, coordinator=nullptr) so late
  // workers get a terminal kComplete instead of kUnknown.
  std::mutex dist_mu_;
  std::map<std::string, std::shared_ptr<DistRun>> dist_runs_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> stop_accepting_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
};

}  // namespace sckl::serve
