#include "serve/server.h"

#include <algorithm>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "store/kle_io.h"

namespace sckl::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::optional<Clock::time_point> deadline_from(std::uint32_t deadline_ms,
                                               std::uint32_t default_ms,
                                               Clock::time_point received) {
  const std::uint32_t ms = deadline_ms != 0 ? deadline_ms : default_ms;
  if (ms == 0) return std::nullopt;
  return received + std::chrono::milliseconds(ms);
}

void append_kv(std::string& out, const char* key, std::uint64_t value,
               bool comma = true) {
  out += "    \"";
  out += key;
  out += "\": ";
  out += std::to_string(value);
  out += comma ? ",\n" : "\n";
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), sampler_cache_(options.sampler_cache_bytes) {
  require(!options_.store_root.empty(), "Server: store_root is required");
  require(!options_.unix_path.empty() || options_.tcp,
          "Server: configure a unix socket path and/or TCP");
  require(options_.sample_chunk_rows >= 1,
          "Server: sample_chunk_rows must be >= 1");
  // A chunk larger than the per-request row cap can never fill; clamp so
  // the two limits stay coherent however they were configured. The serve
  // CLI additionally rejects an explicit --block-samples above the cap.
  options_.sample_chunk_rows =
      std::min(options_.sample_chunk_rows, options_.max_sample_rows);
  require(options_.lease_ttl_ms > 0, "Server: lease_ttl_ms must be > 0");
  // A worker heartbeating on schedule must get several extension chances
  // before its leases can expire, or routine scheduling jitter would
  // trigger reclaims and throw away good work.
  require(options_.heartbeat_interval_ms > 0 &&
              options_.heartbeat_interval_ms * 3 < options_.lease_ttl_ms,
          "Server: heartbeat_interval_ms must be positive and less than "
          "lease_ttl_ms / 3 (a worker needs several heartbeat opportunities "
          "per lease lifetime)");
  store_ = std::make_unique<store::KleArtifactStore>(options_.store_root);
}

Server::~Server() { stop(); }

void Server::start() {
  require(!started_.load(), "Server: already started");
  obs::register_standard_metrics();
  if (!options_.unix_path.empty())
    unix_listener_ = net::listen_unix(options_.unix_path);
  if (options_.tcp)
    tcp_listener_ = net::listen_tcp(options_.tcp_port, bound_tcp_port_);
  started_.store(true);

  if (unix_listener_.valid())
    accept_threads_.emplace_back(
        [this, fd = unix_listener_.get()] { accept_loop(fd); });
  if (tcp_listener_.valid())
    accept_threads_.emplace_back(
        [this, fd = tcp_listener_.get()] { accept_loop(fd); });

  const std::size_t workers =
      ThreadPool::resolve_num_threads(options_.num_threads);
  dispatcher_ = std::thread([this, workers] {
    // The worker pool IS the existing common/ThreadPool: one barrier-style
    // run() whose job loops popping requests until shutdown.
    ThreadPool pool(workers);
    pool.run([this](std::size_t) { worker_loop(); });
  });
}

void Server::stop() {
  if (!started_.load()) return;
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;

  // 1. Stop accepting. Accept loops poll with a short timeout, so they
  //    notice the flag promptly; the listeners are closed only after the
  //    join so no loop ever polls a dead fd.
  stop_accepting_.store(true);
  for (std::thread& t : accept_threads_)
    if (t.joinable()) t.join();
  accept_threads_.clear();
  unix_listener_.reset();
  tcp_listener_.reset();

  // 2. Drain: no new work is admitted (enqueue rejects while draining), and
  //    we give queued + in-flight requests up to drain_ms to finish.
  draining_.store(true);
  std::deque<Request> leftovers;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained_cv_.wait_for(lock, std::chrono::milliseconds(options_.drain_ms),
                         [&] { return queue_.empty() && in_flight_ == 0; });
    leftovers.swap(queue_);
  }
  for (Request& request : leftovers)
    reply_error(request, ErrorCode::kOverloaded,
                "server shutting down before this request could run");

  // 3. Stop the workers (any request already executing completes first —
  //    its own deadline bounds how long that can take).
  stop_workers_.store(true);
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();

  // 4. Unblock the connection readers and wait for them to deregister.
  //    Readers are detached and reap themselves (see connection_loop); the
  //    shutdown makes every blocked read return promptly, so this wait is
  //    bounded by reader epilogue time, not client behaviour.
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    for (const std::shared_ptr<Connection>& conn : connections_)
      conn->fd.shutdown_both();
    readers_cv_.wait(lock, [&] { return active_readers_ == 0; });
    connections_.clear();
  }

  if (!options_.unix_path.empty()) std::remove(options_.unix_path.c_str());
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_.store(true);
  }
  stop_cv_.notify_all();
}

bool Server::wait_for_stop_request(int timeout_ms) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  return stop_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [&] { return stop_requested_.load(); });
}

void Server::accept_loop(int listen_fd) {
  while (!stop_accepting_.load()) {
    try {
      net::Fd client = net::accept_with_timeout(listen_fd, 100);
      if (!client.valid()) continue;  // timeout tick: re-check the flag
      obs::counter("sckl.serve.connections").add(1);
      if (robust::fault_injected(robust::FaultSite::kServeAccept)) {
        // Injected accept failure: the connection is dropped on the floor;
        // the client observes EOF and may retry.
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = std::move(client);
      // Register before the thread starts so its exit-time deregistration
      // always finds the entry; the reader is detached — it reaps itself,
      // and stop() waits on active_readers_ instead of joining.
      {
        std::lock_guard<std::mutex> lock(conn_mu_);
        connections_.push_back(conn);
        ++active_readers_;
      }
      try {
        std::thread([this, conn] { connection_loop(conn); }).detach();
      } catch (...) {
        std::lock_guard<std::mutex> lock(conn_mu_);
        connections_.erase(
            std::remove(connections_.begin(), connections_.end(), conn),
            connections_.end());
        --active_readers_;
        throw;
      }
    } catch (const Error& e) {
      if (stop_accepting_.load()) break;
      std::fprintf(stderr, "sckl_serve: accept error: %s\n", e.what());
    } catch (const std::exception& e) {
      if (stop_accepting_.load()) break;
      std::fprintf(stderr, "sckl_serve: accept error: %s\n", e.what());
    }
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  // Sends an error frame echoing whatever of the request header we managed
  // to parse; swallows write failures (the peer may already be gone).
  const auto send_error = [&](const wire::FrameHeader& echo, ErrorCode code,
                              const std::string& message) {
    try {
      wire::FrameHeader header;
      header.type = echo.type;
      header.request_id = echo.request_id;
      std::lock_guard<std::mutex> lock(conn->write_mu);
      wire::write_frame(conn->fd.get(), header, make_error_reply(code, message));
    } catch (const Error&) {
    }
  };

  // On exit the socket is shut down (not closed: a worker may still be
  // writing a reply for an admitted request, and the fd must not be reused
  // under it) so the peer observes EOF, and this reader deregisters
  // itself: the Connection leaves connections_ immediately and the fd
  // closes with the last shared_ptr — a disconnecting client frees its fd
  // and slot right away instead of at stop(). The notify happens under
  // conn_mu_ so stop()'s waiter cannot destroy the Server between our
  // predicate update and the notify.
  struct ReapOnExit {
    Server* server;
    const std::shared_ptr<Connection>& conn;
    ~ReapOnExit() {
      obs::counter("sckl.serve.connections_reaped").add(1);
      conn->fd.shutdown_both();
      std::lock_guard<std::mutex> lock(server->conn_mu_);
      auto& conns = server->connections_;
      conns.erase(std::remove(conns.begin(), conns.end(), conn), conns.end());
      --server->active_readers_;
      server->readers_cv_.notify_all();
    }
  } reap_on_exit{this, conn};

  for (;;) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> payload;
    try {
      if (!wire::read_frame(conn->fd.get(), options_.max_payload_bytes, header,
                            payload))
        return;  // clean EOF at a frame boundary
    } catch (const Error& e) {
      // Structural garbage (bad magic, hostile length, CRC mismatch) or a
      // mid-frame disconnect: reply with the typed error if anything is
      // still listening, then drop the connection — the byte stream cannot
      // be resynchronized.
      obs::counter("sckl.serve.rejected.protocol").add(1);
      send_error(header, e.code(), e.what());
      return;
    } catch (const std::exception& e) {
      obs::counter("sckl.serve.rejected.protocol").add(1);
      send_error(header, ErrorCode::kProtocol, e.what());
      return;
    }

    if (header.version != wire::kProtocolVersion) {
      // The frame itself parsed (the header layout is version-stable), so
      // the stream stays in sync: answer and keep serving.
      obs::counter("sckl.serve.rejected.protocol").add(1);
      send_error(header, ErrorCode::kVersionMismatch,
                 "unsupported protocol version " +
                     std::to_string(header.version) + " (this server speaks " +
                     std::to_string(wire::kProtocolVersion) + ")");
      continue;
    }
    if (!known_message_type(header.type)) {
      obs::counter("sckl.serve.rejected.protocol").add(1);
      send_error(header, ErrorCode::kProtocol,
                 "unknown message type " + std::to_string(header.type));
      continue;
    }
    if (robust::fault_injected(robust::FaultSite::kServeRead)) {
      send_error(header, ErrorCode::kIoTransient,
                 "request read failure injected at fault site 'serve_read'");
      continue;
    }

    Request request;
    request.conn = conn;
    request.header = header;
    request.type = static_cast<MessageType>(header.type);
    request.deadline = deadline_from(header.deadline_ms,
                                     options_.default_deadline_ms, Clock::now());
    try {
      wire::ByteReader r(payload.data(), payload.size(), ErrorCode::kProtocol,
                         "serve request");
      switch (request.type) {
        case MessageType::kHello:
        case MessageType::kStats:
        case MessageType::kShutdown:
          break;  // empty body
        case MessageType::kSolveKle:
          request.solve = decode_solve_kle_request(r);
          break;
        case MessageType::kSampleBlock: {
          request.sample = decode_sample_block_request(r);
          // Bound the work a single request can pin a worker with *before*
          // admission: admission control only sees the queue, not a worker
          // stuck generating an unbounded reply. The row check comes first
          // so the byte product below cannot overflow.
          if (request.sample->range.count > options_.max_sample_rows) {
            obs::counter("sckl.serve.rejected.row_limit").add(1);
            throw Error("sample_block: range.count " +
                            std::to_string(request.sample->range.count) +
                            " exceeds the server limit of " +
                            std::to_string(options_.max_sample_rows) +
                            " rows per request; split the draw",
                        ErrorCode::kPrecondition);
          }
          const std::uint64_t reply_bytes =
              static_cast<std::uint64_t>(request.sample->range.count) *
              request.sample->locations.size() * 8;
          if (reply_bytes > options_.max_payload_bytes) {
            obs::counter("sckl.serve.rejected.reply_bytes").add(1);
            throw Error("sample_block: reply would be " +
                            std::to_string(reply_bytes) +
                            " bytes, above the frame payload cap of " +
                            std::to_string(options_.max_payload_bytes),
                        ErrorCode::kPrecondition);
          }
          // Sampler identity, computed once here: the sampler cache is
          // keyed by it, so requests agreeing on it share one sampler.
          store::ContentHasher h;
          h.update_u64(store::artifact_key(request.sample->config));
          h.update_u64(request.sample->r);
          h.update_u64(request.sample->locations.size());
          for (const geometry::Point2& p : request.sample->locations) {
            h.update_double(p.x);
            h.update_double(p.y);
          }
          request.sampler_key = h.digest();
          break;
        }
        case MessageType::kRunSsta:
          request.ssta = decode_run_ssta_request(r);
          break;
        case MessageType::kClaimLeases:
          request.claim = decode_claim_leases_request(r);
          break;
        case MessageType::kPublishPartial:
          request.publish = decode_publish_partial_request(r);
          break;
        case MessageType::kHeartbeat:
          request.heartbeat = decode_heartbeat_request(r);
          break;
        case MessageType::kRunStatus:
          request.status = decode_run_status_request(r);
          break;
      }
      if (r.remaining() != 0)
        throw Error("serve request: trailing bytes after payload",
                    ErrorCode::kProtocol);
    } catch (const Error& e) {
      obs::counter("sckl.serve.rejected.protocol").add(1);
      send_error(header, e.code(), e.what());
      continue;  // the payload was fully consumed; the stream is in sync
    } catch (const std::exception& e) {
      // Defense in depth: decode raises sckl::Error by construction, but a
      // std::length_error/bad_alloc escaping here would otherwise unwind a
      // bare thread and std::terminate the daemon.
      obs::counter("sckl.serve.rejected.protocol").add(1);
      send_error(header, ErrorCode::kProtocol, e.what());
      continue;
    }

    obs::counter("sckl.serve.requests").add(1);
    if (!enqueue(std::move(request))) {
      obs::counter("sckl.serve.rejected.overloaded").add(1);
      send_error(header, ErrorCode::kOverloaded,
                 draining_.load() ? "server is shutting down"
                                  : "request queue is full; back off");
    }
  }
}

bool Server::enqueue(Request&& request) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_.load() || stop_workers_.load()) return false;
    if (queue_.size() >= options_.max_queue) return false;
    queue_.push_back(std::move(request));
    obs::gauge("sckl.serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_all();
  return true;
}

bool Server::deadline_expired(const Request& request) {
  if (robust::fault_injected(robust::FaultSite::kServeDeadline)) return true;
  return request.deadline && Clock::now() > *request.deadline;
}

void Server::worker_loop() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return stop_workers_.load() || !queue_.empty(); });
      if (queue_.empty()) return;  // only reachable when stopping
      request = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      obs::gauge("sckl.serve.queue_depth")
          .set(static_cast<double>(queue_.size()));
    }

    try {
      execute(request);
    } catch (...) {
      // execute() handles per-request errors; this is a last-resort guard
      // so no exception can escape into the pool barrier.
    }

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

void Server::execute(Request& request) {
  obs::Span span("serve.request");
  span.set_tag(request.header.request_id);
  obs::Stopwatch watch;
  if (deadline_expired(request)) {
    obs::counter("sckl.serve.rejected.deadline").add(1);
    reply_error(request, ErrorCode::kDeadlineExceeded,
                "deadline expired before the request was scheduled");
    return;
  }
  try {
    switch (request.type) {
      case MessageType::kHello: {
        HelloReply reply;
        reply.server = kServerName;
        send_payload(request, encode_reply(reply), /*is_error=*/false);
        break;
      }
      case MessageType::kSolveKle:
        send_payload(request, encode_reply(do_solve(*request.solve)),
                     /*is_error=*/false);
        break;
      case MessageType::kRunSsta:
        send_payload(request, encode_reply(do_run_ssta(*request.ssta, request)),
                     /*is_error=*/false);
        break;
      case MessageType::kStats: {
        StatsReply reply;
        reply.json = stats_json();
        send_payload(request, encode_reply(reply), /*is_error=*/false);
        break;
      }
      case MessageType::kShutdown:
        send_payload(request, make_ok_reply(), /*is_error=*/false);
        request_stop();
        break;
      case MessageType::kClaimLeases:
        send_payload(request, encode_reply(do_claim_leases(*request.claim)),
                     /*is_error=*/false);
        break;
      case MessageType::kPublishPartial:
        send_payload(request, encode_reply(do_publish_partial(*request.publish)),
                     /*is_error=*/false);
        break;
      case MessageType::kHeartbeat:
        send_payload(request, encode_reply(do_heartbeat(*request.heartbeat)),
                     /*is_error=*/false);
        break;
      case MessageType::kRunStatus:
        send_payload(request, encode_reply(do_run_status(*request.status)),
                     /*is_error=*/false);
        break;
      case MessageType::kSampleBlock:
        do_sample_block(request);
        break;
    }
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kDeadlineExceeded)
      obs::counter("sckl.serve.rejected.deadline").add(1);
    reply_error(request, e.code(), e.what());
  } catch (const std::exception& e) {
    reply_error(request, ErrorCode::kGeneric, e.what());
  }
  obs::histogram("sckl.serve.request_us").record(watch.seconds() * 1e6);
}

void Server::do_sample_block(const Request& request) {
  const SampleBlockRequest& body = *request.sample;
  const std::shared_ptr<const field::KleFieldSampler> sampler =
      sampler_for(request.sampler_key, body);
  // Opened after the sampler fetch: perfbench's serve_sample joins this span
  // with the store.fetch span before it on the same thread.
  obs::Span span("serve.sample_block");
  span.set_tag(request.header.request_id);
  SampleBlockReply reply;
  reply.rows = body.range.count;
  reply.cols = sampler->num_locations();
  reply.values.reserve(static_cast<std::size_t>(reply.rows) *
                       static_cast<std::size_t>(reply.cols));
  linalg::Matrix latents;
  linalg::Matrix chunk;
  std::size_t done = 0;
  while (done < body.range.count) {
    // Deadlines cancel between chunks, so one giant request cannot pin a
    // worker past its budget.
    if (deadline_expired(request))
      throw Error("sample_block: deadline expired mid-generation",
                  ErrorCode::kDeadlineExceeded);
    const std::size_t n =
        std::min(options_.sample_chunk_rows, body.range.count - done);
    // Chunking cannot change the bits: every sample row is a pure function
    // of its global index (stateless index-addressed draws). The chunk is
    // produced through the staged interface — one latent fill, one GEMM —
    // with both matrices reused across chunks.
    const field::SampleRange range{body.range.first + done, n};
    sampler->latent_block(range, body.stream, latents);
    sampler->reconstruct(latents, chunk);
    reply.values.insert(reply.values.end(), chunk.data(),
                        chunk.data() + n * sampler->num_locations());
    done += n;
  }
  send_payload(request, encode_reply(reply), /*is_error=*/false);
}

SolveKleReply Server::do_solve(const SolveKleRequest& request) {
  const auto kernel =
      store::make_kernel(request.config.kernel_id, request.config.kernel_params);
  // Concurrent cold solves of the same key dedup through the store's
  // per-key lock: exactly one caller runs the eigensolve, the rest load the
  // winner's artifact (StoreHealth::deduped_solves counts them).
  const store::FetchResult fetch = store_->get_or_compute(request.config, *kernel);
  SolveKleReply reply;
  reply.key = store::artifact_key(request.config);
  reply.source = static_cast<std::uint32_t>(fetch.source);
  reply.seconds = fetch.seconds;
  reply.mesh_triangles = fetch.artifact->basis_size();
  reply.num_eigenpairs = fetch.artifact->num_eigenpairs();
  if (request.want_artifact)
    reply.artifact = store::encode_kle(request.config, *fetch.artifact);
  return reply;
}

std::shared_ptr<const field::KleFieldSampler> Server::sampler_for(
    std::uint64_t sampler_key, const SampleBlockRequest& request) {
  if (auto cached = sampler_cache_.get(sampler_key)) {
    obs::counter("sckl.serve.sampler_cache.hits").add(1);
    return cached;
  }
  obs::counter("sckl.serve.sampler_cache.misses").add(1);
  const auto kernel =
      store::make_kernel(request.config.kernel_id, request.config.kernel_params);
  const store::FetchResult fetch =
      store_->get_or_compute(request.config, *kernel);
  auto sampler = std::make_shared<const field::KleFieldSampler>(
      *fetch.artifact, static_cast<std::size_t>(request.r), request.locations);
  sampler_cache_.put(sampler_key, sampler, sampler->matrix_bytes());
  return sampler;
}

RunSstaReply Server::do_run_ssta(RunSstaRequest request,
                                 const Request& envelope) {
  if (request.distributed && request.run_id.empty())
    throw Error("run_ssta: distributed=1 requires a run_id (the lease table "
                "is registered and resumed under it)",
                ErrorCode::kPrecondition);
  // m is resolved into the request itself: a distributed run hands this
  // request to its workers, which must solve the same KLE.
  request.num_eigenpairs = ssta::num_eigenpairs_for(
      static_cast<std::size_t>(request.r),
      static_cast<std::size_t>(request.num_eigenpairs));
  ssta::ExperimentConfig config = experiment_config(request);
  config.store_root = options_.store_root;
  config.lease_ttl_ms = options_.lease_ttl_ms;

  // One pipeline (netlist, placement, STA engine) per distinct construction
  // config, shared across requests; run_kle calls are serialized per entry.
  store::ContentHasher h;
  h.update_string(config.circuit);
  h.update_u64(config.num_samples);
  h.update_double(config.mesh_area_fraction);
  h.update_double(config.kernel_c);
  h.update_u64(config.seed);
  h.update_u64(config.num_threads);
  h.update_u64(config.mc_block_size);
  h.update_u64(config.mc_lease_blocks);
  const std::uint64_t key = h.digest();

  std::shared_ptr<PipelineEntry> entry;
  {
    std::lock_guard<std::mutex> lock(pipeline_mu_);
    if (pipelines_.size() > 8) pipelines_.clear();  // in-use entries survive
    auto& slot = pipelines_[key];
    if (!slot) slot = std::make_shared<PipelineEntry>();
    entry = slot;
  }

  std::lock_guard<std::mutex> entry_lock(entry->mu);
  if (!entry->pipeline)
    entry->pipeline = std::make_unique<ssta::ExperimentPipeline>(config);

  ssta::KleRunRequest run;
  run.r = config.r;
  run.num_eigenpairs = config.num_eigenpairs;
  run.store = store_.get();
  run.run_id = request.run_id;
  run.resume = request.resume;
  const auto deadline = envelope.deadline;
  run.cancelled = [deadline] {
    if (robust::fault_injected(robust::FaultSite::kServeDeadline)) return true;
    return deadline.has_value() && Clock::now() > *deadline;
  };
  if (request.distributed) {
    // Register the run's live lease table for remote workers. The hook
    // fires twice from inside the checkpointed runner: once with the live
    // coordinator after ledger replay, once with nullptr before it is
    // destroyed (also on the exception path). Unregistration keeps the
    // entry, flipped to the terminal state, so late workers observe
    // kComplete rather than kUnknown.
    run.share_coordinator = [this, request](
                                ssta::LeaseCoordinator* coordinator,
                                const ssta::LedgerHeader* header) {
      if (coordinator != nullptr && header != nullptr) {
        auto dist = std::make_shared<DistRun>();
        dist->coordinator = coordinator;
        dist->request = request;
        dist->header = *header;
        std::lock_guard<std::mutex> lock(dist_mu_);
        // A resumed run replaces its old entry.
        dist_runs_[request.run_id] = dist;
        obs::counter("sckl.ssta.mc.remote.runs_registered").add(1);
      } else {
        std::shared_ptr<DistRun> dist;
        {
          std::lock_guard<std::mutex> lock(dist_mu_);
          const auto it = dist_runs_.find(request.run_id);
          if (it != dist_runs_.end()) dist = it->second;
        }
        if (dist) {
          // Locking the entry's own mutex here is the lifetime fence: any
          // handler still using the coordinator holds it, so this blocks
          // until the pointer is safe to retire.
          std::lock_guard<std::mutex> lock(dist->mu);
          dist->coordinator = nullptr;
          dist->complete = true;
        }
      }
    };
  }
  const ssta::KleRunOutcome outcome = entry->pipeline->run_kle(run);

  RunSstaReply reply;
  reply.mean = outcome.ssta.worst_delay.mean();
  reply.sigma = outcome.ssta.worst_delay.stddev();
  if (outcome.ssta.worst_delay_sketch.count() > 0) {
    reply.p99 = outcome.ssta.worst_delay_sketch.quantile(0.99);
    reply.p999 = outcome.ssta.worst_delay_sketch.quantile(0.999);
  }
  reply.resumed_leases = outcome.mc_run.leases_resumed;
  reply.setup_seconds = outcome.setup_seconds;
  reply.sampling_seconds = outcome.ssta.sampling_seconds;
  reply.sta_seconds = outcome.ssta.sta_seconds;
  reply.total_seconds = outcome.ssta.total_seconds;
  reply.source = static_cast<std::uint32_t>(outcome.source);
  reply.mesh_triangles = outcome.mesh_triangles;
  reply.threads_used = outcome.ssta.threads_used;
  return reply;
}

std::shared_ptr<Server::DistRun> Server::find_dist_run(
    const std::string& run_id) {
  std::lock_guard<std::mutex> lock(dist_mu_);
  const auto it = dist_runs_.find(run_id);
  return it == dist_runs_.end() ? nullptr : it->second;
}

void Server::check_config_hash(const DistRun& run, std::uint64_t claimed) {
  if (claimed != 0 && claimed != run.header.workload_key)
    throw Error("distributed mc: worker config_hash " +
                    std::to_string(claimed) + " does not match this run's " +
                    std::to_string(run.header.workload_key) +
                    " — the worker is computing a different workload and "
                    "its partials must never reach the ledger",
                ErrorCode::kPrecondition);
}

ClaimLeasesReply Server::do_claim_leases(const ClaimLeasesRequest& request) {
  ClaimLeasesReply reply;
  if (request.worker_id == 0)
    throw Error("claim_leases: worker_id must be nonzero (0 is the "
                "coordinator's own claim marker)",
                ErrorCode::kPrecondition);
  const std::shared_ptr<DistRun> run = find_dist_run(request.run_id);
  if (!run) return reply;  // kUnknown
  std::lock_guard<std::mutex> lock(run->mu);
  check_config_hash(*run, request.config_hash);
  if (run->coordinator == nullptr) {
    reply.run_state = RunState::kComplete;
    return reply;
  }
  reply.run_state = RunState::kRunning;
  reply.workload = run->request;
  reply.geometry = run->header;
  reply.lease_ttl_ms = options_.lease_ttl_ms;
  reply.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  const std::size_t max_leases =
      std::max<std::size_t>(1, static_cast<std::size_t>(request.max_leases));
  for (const ssta::ClaimedLease& lease :
       run->coordinator->claim_remote(request.worker_id, max_leases)) {
    WireLease wire_lease;
    wire_lease.index = lease.index;
    wire_lease.first_block = lease.first_block;
    wire_lease.num_blocks = lease.num_blocks;
    reply.leases.push_back(wire_lease);
  }
  return reply;
}

PublishPartialReply Server::do_publish_partial(
    const PublishPartialRequest& request) {
  PublishPartialReply reply;
  const std::shared_ptr<DistRun> run = find_dist_run(request.run_id);
  if (!run) {
    // Not an error: a restarted coordinator daemon hasn't re-registered the
    // run yet. "Not accepted" makes the worker discard the partial and
    // claim again, which polls until the resumed run reappears.
    reply.accepted = false;
    return reply;
  }
  std::lock_guard<std::mutex> lock(run->mu);
  check_config_hash(*run, request.config_hash);
  if (run->coordinator == nullptr) {
    // Run already finished: the partial is redundant by construction (every
    // lease is Complete), so "not accepted" just tells the worker to claim
    // again and observe the terminal state.
    reply.accepted = false;
    return reply;
  }
  wire::ByteReader r(request.partial.data(), request.partial.size(),
                     ErrorCode::kProtocol, "publish_partial body");
  const ssta::detail::BlockPartial partial =
      ssta::detail::BlockPartial::decode(r);
  if (r.remaining() != 0)
    throw Error("publish_partial: trailing bytes after the encoded partial",
                ErrorCode::kProtocol);
  reply.accepted = run->coordinator->publish_remote(
      request.worker_id, static_cast<std::size_t>(request.lease.index),
      static_cast<std::size_t>(request.lease.first_block),
      static_cast<std::size_t>(request.lease.num_blocks), partial);
  return reply;
}

HeartbeatReply Server::do_heartbeat(const HeartbeatRequest& request) {
  HeartbeatReply reply;
  const std::shared_ptr<DistRun> run = find_dist_run(request.run_id);
  if (!run) return reply;  // kUnknown
  std::lock_guard<std::mutex> lock(run->mu);
  check_config_hash(*run, request.config_hash);
  if (run->coordinator == nullptr) {
    reply.run_state = RunState::kComplete;
    return reply;
  }
  reply.run_state = RunState::kRunning;
  reply.leases_extended = run->coordinator->heartbeat(request.worker_id);
  return reply;
}

RunStatusReply Server::do_run_status(const RunStatusRequest& request) {
  RunStatusReply reply;
  const std::shared_ptr<DistRun> run = find_dist_run(request.run_id);
  if (!run) return reply;  // kUnknown
  std::lock_guard<std::mutex> lock(run->mu);
  reply.config_hash = run->header.workload_key;
  const std::uint64_t blocks =
      run->header.block_size == 0
          ? 0
          : (run->header.num_samples + run->header.block_size - 1) /
                run->header.block_size;
  const std::uint64_t total =
      run->header.lease_blocks == 0
          ? 0
          : (blocks + run->header.lease_blocks - 1) / run->header.lease_blocks;
  reply.leases_total = total;
  if (run->coordinator == nullptr) {
    reply.run_state = RunState::kComplete;
    reply.leases_complete = total;
    return reply;
  }
  reply.run_state = RunState::kRunning;
  const ssta::LeaseProgress progress = run->coordinator->progress();
  reply.leases_total = progress.total;
  reply.leases_complete = progress.complete;
  reply.leases_claimed = progress.claimed;
  return reply;
}

void Server::send_payload(const Request& request,
                          const std::vector<std::uint8_t>& payload,
                          bool is_error) {
  obs::counter(is_error ? "sckl.serve.replies.error" : "sckl.serve.replies.ok")
      .add(1);
  try {
    wire::FrameHeader header;
    header.type = request.header.type;
    header.request_id = request.header.request_id;
    std::lock_guard<std::mutex> lock(request.conn->write_mu);
    wire::write_frame(request.conn->fd.get(), header, payload);
  } catch (const Error&) {
    // The peer disconnected before its reply; nothing sensible to do.
  }
}

void Server::reply_error(const Request& request, ErrorCode code,
                         const std::string& message) {
  send_payload(request, make_error_reply(code, message), /*is_error=*/true);
}

std::string Server::stats_json() {
  const store::StoreHealth health = store_->health();
  const store::CacheStats cache = store_->cache_stats();
  const store::CacheStats samplers = sampler_cache_.stats();
  std::size_t queue_depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_depth = queue_.size();
  }

  std::string out = "{\n  \"schema\": \"sckl-serve-stats-v1\",\n";
#if defined(__unix__) || defined(__APPLE__)
  out += "  \"pid\": " + std::to_string(::getpid()) + ",\n";
#else
  out += "  \"pid\": 0,\n";
#endif
  out += "  \"queue_depth\": " + std::to_string(queue_depth) + ",\n";
  out += "  \"open_connections\": " + std::to_string(open_connections()) +
         ",\n";
  // Admission / hardening counters: how often the request caps fired and
  // how many connection readers have come and gone — the observable side of
  // the row-limit, reply-size, and connection-reaping defenses.
  out += "  \"admission\": {\n";
  append_kv(out, "requests", obs::counter("sckl.serve.requests").value());
  append_kv(out, "rejected_protocol",
            obs::counter("sckl.serve.rejected.protocol").value());
  append_kv(out, "rejected_overloaded",
            obs::counter("sckl.serve.rejected.overloaded").value());
  append_kv(out, "rejected_deadline",
            obs::counter("sckl.serve.rejected.deadline").value());
  append_kv(out, "rejected_row_limit",
            obs::counter("sckl.serve.rejected.row_limit").value());
  append_kv(out, "rejected_reply_bytes",
            obs::counter("sckl.serve.rejected.reply_bytes").value());
  append_kv(out, "connections_reaped",
            obs::counter("sckl.serve.connections_reaped").value(),
            /*comma=*/false);
  out += "  },\n";
  out += "  \"store_health\": {\n";
  append_kv(out, "read_retries", health.read_retries);
  append_kv(out, "write_retries", health.write_retries);
  append_kv(out, "failed_reads", health.failed_reads);
  append_kv(out, "failed_writes", health.failed_writes);
  append_kv(out, "quarantined", health.quarantined);
  append_kv(out, "deduped_solves", health.deduped_solves, /*comma=*/false);
  out += "  },\n";
  const auto cache_block = [&](const char* name, const store::CacheStats& s) {
    out += "  \"";
    out += name;
    out += "\": {\n";
    append_kv(out, "hits", s.hits);
    append_kv(out, "misses", s.misses);
    append_kv(out, "evictions", s.evictions);
    append_kv(out, "insertions", s.insertions);
    append_kv(out, "oversized_rejects", s.oversized_rejects);
    append_kv(out, "entries", s.entries);
    append_kv(out, "bytes", s.bytes);
    append_kv(out, "byte_budget", s.byte_budget, /*comma=*/false);
    out += "  },\n";
  };
  cache_block("store_cache", cache);
  cache_block("sampler_cache", samplers);
  out += "  \"metrics\": ";
  out += obs::metrics_json_array();
  out += "\n}\n";
  return out;
}

}  // namespace sckl::serve
