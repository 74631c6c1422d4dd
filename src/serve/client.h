// Blocking client for the sckl_serve protocol.
//
// One Client wraps one connection and issues one request at a time
// (request/reply lockstep; the request id still increments per call so
// traces and error frames correlate). Remote failures rethrow client-side
// as sckl::Error carrying the server's original ErrorCode — calling code
// handles a remote kOverloaded exactly like a local one.
//
// Not thread-safe: share nothing, or give each thread its own Client (the
// server handles concurrent connections; that is the intended way to issue
// concurrent requests).
#pragma once

#include <cstdint>
#include <string>

#include "common/socket.h"
#include "linalg/matrix.h"
#include "serve/protocol.h"

namespace sckl::serve {

class Client {
 public:
  /// Connects to a unix-domain server socket. Throws on failure.
  static Client connect_unix(const std::string& path);
  /// Connects to a loopback TCP server. Throws on failure.
  static Client connect_tcp(std::uint16_t port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Deadline attached to every subsequent request (0 = none). The server
  /// rejects work it cannot finish in time with kDeadlineExceeded.
  void set_deadline_ms(std::uint32_t deadline_ms) { deadline_ms_ = deadline_ms; }

  /// Largest reply payload this client will accept.
  void set_max_payload_bytes(std::size_t bytes) { max_payload_bytes_ = bytes; }

  /// Bound on how long a call waits for the reply's first byte (0 = wait
  /// forever). A silent peer — half-open connection, stalled daemon —
  /// surfaces as kDeadlineExceeded instead of a hang, which is what lets a
  /// distributed worker's retry loop make progress across coordinator
  /// failures. Distinct from set_deadline_ms, which is the *server-side*
  /// execution budget carried in the frame header.
  void set_rpc_timeout_ms(int timeout_ms) { rpc_timeout_ms_ = timeout_ms; }

  HelloReply hello();
  SolveKleReply solve_kle(const SolveKleRequest& request);
  SampleBlockReply sample_block(const SampleBlockRequest& request);
  /// Convenience: sample_block decoded straight into a row-major Matrix of
  /// shape (range.count, locations.size()) — bit-identical to running
  /// KleFieldSampler::sample_block locally.
  linalg::Matrix sample_matrix(const SampleBlockRequest& request);
  RunSstaReply run_ssta(const RunSstaRequest& request);
  StatsReply stats();
  /// Distributed Monte Carlo worker RPCs (see DESIGN.md §12).
  ClaimLeasesReply claim_leases(const ClaimLeasesRequest& request);
  PublishPartialReply publish_partial(const PublishPartialRequest& request);
  HeartbeatReply heartbeat(const HeartbeatRequest& request);
  RunStatusReply run_status(const RunStatusRequest& request);
  /// Asks the server to shut down gracefully (acknowledged before draining).
  void shutdown_server();

  /// Escape hatch for protocol tests: send a raw frame (any header fields)
  /// and read back one reply payload, without the usual encoding.
  std::vector<std::uint8_t> roundtrip_raw(wire::FrameHeader header,
                                          const std::vector<std::uint8_t>& payload);

  /// The underlying socket (protocol tests write hostile bytes directly).
  int fd() const { return fd_.get(); }

 private:
  explicit Client(net::Fd fd) : fd_(std::move(fd)) {}

  /// Sends `payload` as a frame of `type` and reads the matching reply
  /// payload (validating the echoed request id).
  std::vector<std::uint8_t> roundtrip(MessageType type,
                                      const std::vector<std::uint8_t>& payload);

  net::Fd fd_;
  std::uint64_t next_request_id_ = 1;
  std::uint32_t deadline_ms_ = 0;
  std::size_t max_payload_bytes_ = std::size_t{256} << 20;
  int rpc_timeout_ms_ = 0;
};

}  // namespace sckl::serve
