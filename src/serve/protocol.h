// Message schemas of the sckl_serve wire protocol (version 4).
//
// Transport: every message is one frame (common/frame.h — "SCKF" magic,
// version, type, deadline, request id, payload, CRC). This header defines
// what goes *inside* the payload for each MessageType, using the same
// little-endian primitives as the on-disk artifact format (common/wire.h)
// and reusing store/kle_io's KleArtifactConfig codec verbatim, so a config
// is encoded identically on disk and on the wire.
//
// Request/reply pairing: a reply frame echoes the request's type and
// request id. Every reply payload starts with a u32 status — 0 for success
// followed by the type-specific body below, otherwise the sckl::ErrorCode
// of the failure followed by a diagnostic string. check_reply_status()
// rethrows such an error client-side with the original code, so a remote
// failure is indistinguishable from a local one to reaction code.
//
//   kHello        -> (empty)            <- u32 protocol version, string build
//   kSolveKle     -> artifact config, u8 want_artifact
//                 <- u64 key, u32 fetch source, f64 seconds, u64 triangles,
//                    u64 eigenpairs, blob artifact (empty unless requested)
//   kSampleBlock  -> artifact config, u64 r, locations (u64 n + 2n f64),
//                    range (u64 first, u64 count), stream (u64 seed, u64 id)
//                 <- u64 rows, u64 cols, rows*cols f64 row-major — the exact
//                    bits KleFieldSampler::sample_block produces locally
//   kRunSsta      -> string circuit, u64 num_samples, u64 r, u64 eigenpairs,
//                    f64 mesh_area_fraction, f64 kernel_c, u64 seed,
//                    u64 num_threads, string run_id, u8 resume,
//                    u8 distributed, u64 mc_block_size, u64 mc_lease_blocks
//                 <- f64 mean/sigma/p99/p999/setup/sampling/sta/total,
//                    u32 source, u64 triangles, u64 threads_used,
//                    u64 resumed_leases
//   kStats        -> (empty)            <- string JSON (sckl-serve-stats-v1)
//   kShutdown     -> (empty)            <- (empty); server then drains
//
// Distributed Monte Carlo: a coordinator-side RunSsta with distributed=1
// registers the run's live lease table; remote workers then drive it with
// the four messages below (see DESIGN.md §12 for the flow).
//   kClaimLeases  -> string run_id, u64 worker_id, u64 config_hash
//                    (0 = unknown yet), u64 max_leases
//                 <- u8 run_state (0 unknown / 1 running / 2 complete);
//                    when running (v4): the coordinator's RunSsta request
//                    with m resolved (kRunSsta's request layout above), the
//                    run's ledger header (u8 tag 1, u64 workload_key =
//                    config_hash, num_samples, block_size, lease_blocks,
//                    mc seed, sketch_capacity, num_endpoints), u64
//                    lease_ttl_ms, u64 heartbeat_interval_ms, then u64
//                    count leases of (u64 index, u64 first_block, u64
//                    num_blocks)
//   kPublishPartial -> string run_id, u64 worker_id, u64 config_hash,
//                    u64 lease index/first_block/num_blocks, blob partial
//                    (ssta BlockPartial codec)
//                 <- u8 accepted (0 = lease expired / re-issued / run not
//                    currently live here: discard the partial, claim again)
//   kHeartbeat    -> string run_id, u64 worker_id, u64 config_hash
//                 <- u8 run_state, u64 leases_extended
//   kRunStatus    -> string run_id
//                 <- u8 run_state, u64 config_hash, u64 leases_total,
//                    u64 leases_complete, u64 leases_claimed
//
// A worker whose config_hash differs from the coordinator's gets a
// kPrecondition error reply — it is computing a different workload and its
// partials must never reach the ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/frame.h"
#include "common/rng.h"
#include "common/wire.h"
#include "field/field_sampler.h"
#include "geometry/point2.h"
#include "ssta/experiment.h"
#include "ssta/lease_ledger.h"
#include "store/key_hash.h"

namespace sckl::serve {

/// Frame type of every protocol message. Requests and replies share the
/// value; direction disambiguates.
enum class MessageType : std::uint32_t {
  kHello = 1,
  kSolveKle = 2,
  kSampleBlock = 3,
  kRunSsta = 4,
  kStats = 5,
  kShutdown = 6,
  kClaimLeases = 7,
  kPublishPartial = 8,
  kHeartbeat = 9,
  kRunStatus = 10,
};

/// Distributed-run lifecycle states carried in ClaimLeases / Heartbeat /
/// RunStatus replies.
enum class RunState : std::uint8_t {
  kUnknown = 0,   // no live coordinator registered under that run_id
  kRunning = 1,
  kComplete = 2,  // the coordinator finished the run on this daemon
};

/// Stable lowercase name ("hello", "solve_kle", ...); "unknown" otherwise.
const char* to_string(MessageType type);

/// True for the message types this build understands.
bool known_message_type(std::uint32_t type);

// --- requests --------------------------------------------------------------

struct SolveKleRequest {
  store::KleArtifactConfig config;
  bool want_artifact = false;  // return the full encoded .sckl artifact
};

struct SampleBlockRequest {
  store::KleArtifactConfig config;           // which KLE to sample from
  std::uint64_t r = 25;                      // truncation
  std::vector<geometry::Point2> locations;   // sample locations on the die
  field::SampleRange range;                  // global sample index range
  StreamKey stream;                          // parameter stream
};

struct RunSstaRequest {
  std::string circuit = "c880";
  std::uint64_t num_samples = 200;
  std::uint64_t r = 25;
  std::uint64_t num_eigenpairs = 0;       // 0 = ssta::num_eigenpairs_for(r)
  double mesh_area_fraction = 0.001;
  double kernel_c = 0.0;                  // 0 = the paper's fitted value
  std::uint64_t seed = 1;
  std::uint64_t num_threads = 0;          // 0 = server default
  /// Non-empty: run through the checkpointed Monte Carlo runner, keeping a
  /// durable run ledger under the server's store root (requires the server
  /// to have a store). resume continues an interrupted run's ledger.
  std::string run_id;
  bool resume = false;
  /// Run as a distributed coordinator: register the lease table for remote
  /// ClaimLeases/PublishPartial workers and degrade to local compute only
  /// when they go quiet. Requires a non-empty run_id.
  bool distributed = false;
  /// Checkpointing geometry overrides (0 = the McSstaOptions/McRunOptions
  /// defaults). Part of the ledger header, so they must match on resume.
  std::uint64_t mc_block_size = 0;
  std::uint64_t mc_lease_blocks = 0;
};

/// The ExperimentConfig a RunSsta request describes. The coordinator's
/// handler and a remote worker both build their pipeline from it, so the
/// two cannot build different pipelines for one run. Settings the request
/// does not carry (store root, lease TTL, ...) keep their defaults.
ssta::ExperimentConfig experiment_config(const RunSstaRequest& request);

/// ClaimLeases: a worker asks the coordinator daemon for up to max_leases
/// available leases of run_id. config_hash 0 means "not known yet" (the
/// first claim, before the worker has built its pipeline) — the reply's
/// workload and geometry let it build one; any later mismatch is
/// kPrecondition.
struct ClaimLeasesRequest {
  std::string run_id;
  std::uint64_t worker_id = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t max_leases = 1;
};

/// One lease granted to a remote worker.
struct WireLease {
  std::uint64_t index = 0;
  std::uint64_t first_block = 0;
  std::uint64_t num_blocks = 0;
};

struct ClaimLeasesReply {
  RunState run_state = RunState::kUnknown;
  // Everything below is only present (and only encoded) when kRunning.
  /// The coordinator's own RunSsta request, with num_eigenpairs resolved:
  /// a worker builds its pipeline from experiment_config(workload).
  RunSstaRequest workload;
  /// The run's ledger header, verbatim: the sampling geometry a worker
  /// uses as is (re-deriving any of it risks bit divergence), and the
  /// workload key, which is the run's config_hash.
  ssta::LedgerHeader geometry;
  std::uint64_t lease_ttl_ms = 0;
  std::uint64_t heartbeat_interval_ms = 0;
  std::vector<WireLease> leases;  // may be empty: nothing claimable now
};

struct PublishPartialRequest {
  std::string run_id;
  std::uint64_t worker_id = 0;
  std::uint64_t config_hash = 0;
  WireLease lease;
  std::vector<std::uint8_t> partial;   // ssta::detail::BlockPartial codec
};

struct PublishPartialReply {
  bool accepted = false;  // false: lease expired/re-issued — claim again
};

struct HeartbeatRequest {
  std::string run_id;
  std::uint64_t worker_id = 0;
  std::uint64_t config_hash = 0;
};

struct HeartbeatReply {
  RunState run_state = RunState::kUnknown;
  std::uint64_t leases_extended = 0;
};

struct RunStatusRequest {
  std::string run_id;
};

struct RunStatusReply {
  RunState run_state = RunState::kUnknown;
  std::uint64_t config_hash = 0;
  std::uint64_t leases_total = 0;
  std::uint64_t leases_complete = 0;
  std::uint64_t leases_claimed = 0;
};

// --- replies ---------------------------------------------------------------

struct HelloReply {
  std::uint32_t protocol_version = wire::kProtocolVersion;
  std::string server;  // human-readable build identification
};

struct SolveKleReply {
  std::uint64_t key = 0;              // content-hash key of the artifact
  std::uint32_t source = 0;           // store::FetchSource as u32
  double seconds = 0.0;               // server-side fetch wall time
  std::uint64_t mesh_triangles = 0;
  std::uint64_t num_eigenpairs = 0;
  std::vector<std::uint8_t> artifact; // encode_kle bytes; empty unless asked
};

struct SampleBlockReply {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::vector<double> values;  // row-major, rows*cols entries
};

struct RunSstaReply {
  double mean = 0.0;
  double sigma = 0.0;
  /// Tail quantiles of the worst-delay distribution, from the mergeable
  /// quantile sketch (exact while num_samples <= the sketch capacity).
  double p99 = 0.0;
  double p999 = 0.0;
  double setup_seconds = 0.0;
  double sampling_seconds = 0.0;  // thread CPU seconds summed over workers
  double sta_seconds = 0.0;       //   (McSstaResult); total is wall time
  double total_seconds = 0.0;
  std::uint32_t source = 0;      // store::FetchSource as u32
  std::uint64_t mesh_triangles = 0;
  std::uint64_t threads_used = 0;
  std::uint64_t resumed_leases = 0;  // checkpointed runs: leases from ledger
};

struct StatsReply {
  std::string json;  // sckl-serve-stats-v1 document
};

// --- request codecs --------------------------------------------------------
// encode_* append the payload body to `out`; decode_* consume a ByteReader
// (construct it with ErrorCode::kProtocol so malformed payloads surface as
// typed protocol errors, never as crashes).

void encode(std::vector<std::uint8_t>& out, const SolveKleRequest& request);
void encode(std::vector<std::uint8_t>& out, const SampleBlockRequest& request);
void encode(std::vector<std::uint8_t>& out, const RunSstaRequest& request);
void encode(std::vector<std::uint8_t>& out, const ClaimLeasesRequest& request);
void encode(std::vector<std::uint8_t>& out,
            const PublishPartialRequest& request);
void encode(std::vector<std::uint8_t>& out, const HeartbeatRequest& request);
void encode(std::vector<std::uint8_t>& out, const RunStatusRequest& request);

SolveKleRequest decode_solve_kle_request(wire::ByteReader& r);
SampleBlockRequest decode_sample_block_request(wire::ByteReader& r);
RunSstaRequest decode_run_ssta_request(wire::ByteReader& r);
ClaimLeasesRequest decode_claim_leases_request(wire::ByteReader& r);
PublishPartialRequest decode_publish_partial_request(wire::ByteReader& r);
HeartbeatRequest decode_heartbeat_request(wire::ByteReader& r);
RunStatusRequest decode_run_status_request(wire::ByteReader& r);

// --- reply codecs ----------------------------------------------------------
// Success payloads carry the leading status word; build with make_ok_reply /
// the typed encoders, or make_error_reply for failures.

/// Payload of a failure reply: nonzero status (the ErrorCode) + message.
std::vector<std::uint8_t> make_error_reply(ErrorCode code,
                                           const std::string& message);

/// Payload of an empty success reply (hello body appended separately, etc.).
std::vector<std::uint8_t> make_ok_reply();

std::vector<std::uint8_t> encode_reply(const HelloReply& reply);
std::vector<std::uint8_t> encode_reply(const SolveKleReply& reply);
std::vector<std::uint8_t> encode_reply(const SampleBlockReply& reply);
std::vector<std::uint8_t> encode_reply(const RunSstaReply& reply);
std::vector<std::uint8_t> encode_reply(const StatsReply& reply);
std::vector<std::uint8_t> encode_reply(const ClaimLeasesReply& reply);
std::vector<std::uint8_t> encode_reply(const PublishPartialReply& reply);
std::vector<std::uint8_t> encode_reply(const HeartbeatReply& reply);
std::vector<std::uint8_t> encode_reply(const RunStatusReply& reply);

/// Reads the status word; on a nonzero status reads the message and throws
/// sckl::Error carrying the server's original ErrorCode.
void check_reply_status(wire::ByteReader& r);

HelloReply decode_hello_reply(wire::ByteReader& r);
SolveKleReply decode_solve_kle_reply(wire::ByteReader& r);
SampleBlockReply decode_sample_block_reply(wire::ByteReader& r);
RunSstaReply decode_run_ssta_reply(wire::ByteReader& r);
StatsReply decode_stats_reply(wire::ByteReader& r);
ClaimLeasesReply decode_claim_leases_reply(wire::ByteReader& r);
PublishPartialReply decode_publish_partial_reply(wire::ByteReader& r);
HeartbeatReply decode_heartbeat_reply(wire::ByteReader& r);
RunStatusReply decode_run_status_reply(wire::ByteReader& r);

}  // namespace sckl::serve
