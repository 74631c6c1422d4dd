#include "serve/protocol.h"

#include "common/error.h"
#include "store/kle_io.h"

namespace sckl::serve {

namespace {

using wire::put_blob;
using wire::put_f64;
using wire::put_string;
using wire::put_u32;
using wire::put_u64;
using wire::put_u8;

}  // namespace

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "hello";
    case MessageType::kSolveKle: return "solve_kle";
    case MessageType::kSampleBlock: return "sample_block";
    case MessageType::kRunSsta: return "run_ssta";
    case MessageType::kStats: return "stats";
    case MessageType::kShutdown: return "shutdown";
    case MessageType::kClaimLeases: return "claim_leases";
    case MessageType::kPublishPartial: return "publish_partial";
    case MessageType::kHeartbeat: return "heartbeat";
    case MessageType::kRunStatus: return "run_status";
  }
  return "unknown";
}

bool known_message_type(std::uint32_t type) {
  return type >= static_cast<std::uint32_t>(MessageType::kHello) &&
         type <= static_cast<std::uint32_t>(MessageType::kRunStatus);
}

// --- requests --------------------------------------------------------------

void encode(std::vector<std::uint8_t>& out, const SolveKleRequest& request) {
  store::append_artifact_config(out, request.config);
  put_u8(out, request.want_artifact ? 1 : 0);
}

SolveKleRequest decode_solve_kle_request(wire::ByteReader& r) {
  SolveKleRequest request;
  request.config = store::read_artifact_config(r);
  request.want_artifact = r.u8() != 0;
  return request;
}

void encode(std::vector<std::uint8_t>& out, const SampleBlockRequest& request) {
  store::append_artifact_config(out, request.config);
  put_u64(out, request.r);
  put_u64(out, request.locations.size());
  for (const geometry::Point2& p : request.locations) {
    put_f64(out, p.x);
    put_f64(out, p.y);
  }
  put_u64(out, request.range.first);
  put_u64(out, request.range.count);
  put_u64(out, request.stream.seed);
  put_u64(out, request.stream.parameter_id);
}

SampleBlockRequest decode_sample_block_request(wire::ByteReader& r) {
  SampleBlockRequest request;
  request.config = store::read_artifact_config(r);
  request.r = r.u64();
  const std::uint64_t n = r.u64();
  r.need_count(n, 16, "sample locations");
  request.locations.resize(static_cast<std::size_t>(n));
  for (geometry::Point2& p : request.locations) {
    p.x = r.f64();
    p.y = r.f64();
  }
  request.range.first = r.u64();
  request.range.count = static_cast<std::size_t>(r.u64());
  request.stream.seed = r.u64();
  request.stream.parameter_id = r.u64();
  return request;
}

void encode(std::vector<std::uint8_t>& out, const RunSstaRequest& request) {
  put_string(out, request.circuit);
  put_u64(out, request.num_samples);
  put_u64(out, request.r);
  put_u64(out, request.num_eigenpairs);
  put_f64(out, request.mesh_area_fraction);
  put_f64(out, request.kernel_c);
  put_u64(out, request.seed);
  put_u64(out, request.num_threads);
  put_string(out, request.run_id);
  put_u8(out, request.resume ? 1 : 0);
  put_u8(out, request.distributed ? 1 : 0);
  put_u64(out, request.mc_block_size);
  put_u64(out, request.mc_lease_blocks);
}

ssta::ExperimentConfig experiment_config(const RunSstaRequest& request) {
  ssta::ExperimentConfig config;
  config.circuit = request.circuit;
  config.num_samples = static_cast<std::size_t>(request.num_samples);
  config.r = static_cast<std::size_t>(request.r);
  config.num_eigenpairs = static_cast<std::size_t>(request.num_eigenpairs);
  config.mesh_area_fraction = request.mesh_area_fraction;
  config.kernel_c = request.kernel_c;
  config.seed = request.seed;
  config.num_threads = static_cast<std::size_t>(request.num_threads);
  config.mc_block_size = static_cast<std::size_t>(request.mc_block_size);
  config.mc_lease_blocks = static_cast<std::size_t>(request.mc_lease_blocks);
  return config;
}

RunSstaRequest decode_run_ssta_request(wire::ByteReader& r) {
  RunSstaRequest request;
  request.circuit = r.string();
  request.num_samples = r.u64();
  request.r = r.u64();
  request.num_eigenpairs = r.u64();
  request.mesh_area_fraction = r.f64();
  request.kernel_c = r.f64();
  request.seed = r.u64();
  request.num_threads = r.u64();
  request.run_id = r.string();
  request.resume = r.u8() != 0;
  request.distributed = r.u8() != 0;
  request.mc_block_size = r.u64();
  request.mc_lease_blocks = r.u64();
  return request;
}

void encode(std::vector<std::uint8_t>& out, const ClaimLeasesRequest& request) {
  put_string(out, request.run_id);
  put_u64(out, request.worker_id);
  put_u64(out, request.config_hash);
  put_u64(out, request.max_leases);
}

ClaimLeasesRequest decode_claim_leases_request(wire::ByteReader& r) {
  ClaimLeasesRequest request;
  request.run_id = r.string();
  request.worker_id = r.u64();
  request.config_hash = r.u64();
  request.max_leases = r.u64();
  return request;
}

void encode(std::vector<std::uint8_t>& out,
            const PublishPartialRequest& request) {
  put_string(out, request.run_id);
  put_u64(out, request.worker_id);
  put_u64(out, request.config_hash);
  put_u64(out, request.lease.index);
  put_u64(out, request.lease.first_block);
  put_u64(out, request.lease.num_blocks);
  put_blob(out, request.partial);
}

PublishPartialRequest decode_publish_partial_request(wire::ByteReader& r) {
  PublishPartialRequest request;
  request.run_id = r.string();
  request.worker_id = r.u64();
  request.config_hash = r.u64();
  request.lease.index = r.u64();
  request.lease.first_block = r.u64();
  request.lease.num_blocks = r.u64();
  request.partial = r.blob();
  return request;
}

void encode(std::vector<std::uint8_t>& out, const HeartbeatRequest& request) {
  put_string(out, request.run_id);
  put_u64(out, request.worker_id);
  put_u64(out, request.config_hash);
}

HeartbeatRequest decode_heartbeat_request(wire::ByteReader& r) {
  HeartbeatRequest request;
  request.run_id = r.string();
  request.worker_id = r.u64();
  request.config_hash = r.u64();
  return request;
}

void encode(std::vector<std::uint8_t>& out, const RunStatusRequest& request) {
  put_string(out, request.run_id);
}

RunStatusRequest decode_run_status_request(wire::ByteReader& r) {
  RunStatusRequest request;
  request.run_id = r.string();
  return request;
}

// --- replies ---------------------------------------------------------------

std::vector<std::uint8_t> make_error_reply(ErrorCode code,
                                           const std::string& message) {
  std::vector<std::uint8_t> out;
  // kGeneric is 0, which would collide with the success status word; shift
  // a genuinely-generic failure onto an out-of-enum value the client maps
  // back to kGeneric in check_reply_status().
  const auto status = static_cast<std::uint32_t>(code);
  put_u32(out, status != 0 ? status : 1000);
  put_string(out, message);
  return out;
}

std::vector<std::uint8_t> make_ok_reply() {
  std::vector<std::uint8_t> out;
  put_u32(out, 0);
  return out;
}

std::vector<std::uint8_t> encode_reply(const HelloReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  put_u32(out, reply.protocol_version);
  put_string(out, reply.server);
  return out;
}

std::vector<std::uint8_t> encode_reply(const SolveKleReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  put_u64(out, reply.key);
  put_u32(out, reply.source);
  put_f64(out, reply.seconds);
  put_u64(out, reply.mesh_triangles);
  put_u64(out, reply.num_eigenpairs);
  put_blob(out, reply.artifact);
  return out;
}

std::vector<std::uint8_t> encode_reply(const SampleBlockReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  out.reserve(out.size() + 16 + reply.values.size() * 8);
  put_u64(out, reply.rows);
  put_u64(out, reply.cols);
  for (double v : reply.values) put_f64(out, v);
  return out;
}

std::vector<std::uint8_t> encode_reply(const RunSstaReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  put_f64(out, reply.mean);
  put_f64(out, reply.sigma);
  put_f64(out, reply.p99);
  put_f64(out, reply.p999);
  put_f64(out, reply.setup_seconds);
  put_f64(out, reply.sampling_seconds);
  put_f64(out, reply.sta_seconds);
  put_f64(out, reply.total_seconds);
  put_u32(out, reply.source);
  put_u64(out, reply.mesh_triangles);
  put_u64(out, reply.threads_used);
  put_u64(out, reply.resumed_leases);
  return out;
}

std::vector<std::uint8_t> encode_reply(const StatsReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  put_string(out, reply.json);
  return out;
}

std::vector<std::uint8_t> encode_reply(const ClaimLeasesReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  put_u8(out, static_cast<std::uint8_t>(reply.run_state));
  if (reply.run_state != RunState::kRunning) return out;
  encode(out, reply.workload);
  reply.geometry.encode(out);
  put_u64(out, reply.lease_ttl_ms);
  put_u64(out, reply.heartbeat_interval_ms);
  put_u64(out, reply.leases.size());
  for (const WireLease& lease : reply.leases) {
    put_u64(out, lease.index);
    put_u64(out, lease.first_block);
    put_u64(out, lease.num_blocks);
  }
  return out;
}

std::vector<std::uint8_t> encode_reply(const PublishPartialReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  put_u8(out, reply.accepted ? 1 : 0);
  return out;
}

std::vector<std::uint8_t> encode_reply(const HeartbeatReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  put_u8(out, static_cast<std::uint8_t>(reply.run_state));
  put_u64(out, reply.leases_extended);
  return out;
}

std::vector<std::uint8_t> encode_reply(const RunStatusReply& reply) {
  std::vector<std::uint8_t> out = make_ok_reply();
  put_u8(out, static_cast<std::uint8_t>(reply.run_state));
  put_u64(out, reply.config_hash);
  put_u64(out, reply.leases_total);
  put_u64(out, reply.leases_complete);
  put_u64(out, reply.leases_claimed);
  return out;
}

void check_reply_status(wire::ByteReader& r) {
  const std::uint32_t status = r.u32();
  if (status == 0) return;
  const std::string message = r.string();
  // Statuses outside our enum (the shifted-generic sentinel, or codes from
  // a newer server) map back to kGeneric.
  ErrorCode code = ErrorCode::kGeneric;
  if (status <= static_cast<std::uint32_t>(ErrorCode::kDeadlineExceeded))
    code = static_cast<ErrorCode>(status);
  throw Error("serve: remote error: " + message, code);
}

HelloReply decode_hello_reply(wire::ByteReader& r) {
  check_reply_status(r);
  HelloReply reply;
  reply.protocol_version = r.u32();
  reply.server = r.string();
  return reply;
}

SolveKleReply decode_solve_kle_reply(wire::ByteReader& r) {
  check_reply_status(r);
  SolveKleReply reply;
  reply.key = r.u64();
  reply.source = r.u32();
  reply.seconds = r.f64();
  reply.mesh_triangles = r.u64();
  reply.num_eigenpairs = r.u64();
  reply.artifact = r.blob();
  return reply;
}

SampleBlockReply decode_sample_block_reply(wire::ByteReader& r) {
  check_reply_status(r);
  SampleBlockReply reply;
  reply.rows = r.u64();
  reply.cols = r.u64();
  // Bound each dimension before forming the product: hostile header values
  // must not wrap rows * cols past the bounds check. After cols passes,
  // cols * 8 <= remaining(), so the second check cannot overflow either.
  r.need_count(reply.cols, 8, "sample columns");
  if (reply.cols != 0)
    r.need_count(reply.rows, static_cast<std::size_t>(reply.cols) * 8,
                 "sample values");
  const std::uint64_t total = reply.cols != 0 ? reply.rows * reply.cols : 0;
  reply.values.resize(static_cast<std::size_t>(total));
  for (double& v : reply.values) v = r.f64();
  return reply;
}

RunSstaReply decode_run_ssta_reply(wire::ByteReader& r) {
  check_reply_status(r);
  RunSstaReply reply;
  reply.mean = r.f64();
  reply.sigma = r.f64();
  reply.p99 = r.f64();
  reply.p999 = r.f64();
  reply.setup_seconds = r.f64();
  reply.sampling_seconds = r.f64();
  reply.sta_seconds = r.f64();
  reply.total_seconds = r.f64();
  reply.source = r.u32();
  reply.mesh_triangles = r.u64();
  reply.threads_used = r.u64();
  reply.resumed_leases = r.u64();
  return reply;
}

StatsReply decode_stats_reply(wire::ByteReader& r) {
  check_reply_status(r);
  StatsReply reply;
  reply.json = r.string();
  return reply;
}

namespace {

RunState decode_run_state(wire::ByteReader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > static_cast<std::uint8_t>(RunState::kComplete))
    throw Error("serve: invalid run state " + std::to_string(raw),
                ErrorCode::kProtocol);
  return static_cast<RunState>(raw);
}

}  // namespace

ClaimLeasesReply decode_claim_leases_reply(wire::ByteReader& r) {
  check_reply_status(r);
  ClaimLeasesReply reply;
  reply.run_state = decode_run_state(r);
  if (reply.run_state != RunState::kRunning) return reply;
  reply.workload = decode_run_ssta_request(r);
  if (r.u8() != ssta::kLedgerHeaderTag)
    throw Error("serve: claim_leases reply has no ledger header",
                ErrorCode::kProtocol);
  reply.geometry = ssta::LedgerHeader::decode(r);
  reply.lease_ttl_ms = r.u64();
  reply.heartbeat_interval_ms = r.u64();
  const std::uint64_t count = r.u64();
  r.need_count(count, 24, "granted leases");
  reply.leases.resize(static_cast<std::size_t>(count));
  for (WireLease& lease : reply.leases) {
    lease.index = r.u64();
    lease.first_block = r.u64();
    lease.num_blocks = r.u64();
  }
  return reply;
}

PublishPartialReply decode_publish_partial_reply(wire::ByteReader& r) {
  check_reply_status(r);
  PublishPartialReply reply;
  reply.accepted = r.u8() != 0;
  return reply;
}

HeartbeatReply decode_heartbeat_reply(wire::ByteReader& r) {
  check_reply_status(r);
  HeartbeatReply reply;
  reply.run_state = decode_run_state(r);
  reply.leases_extended = r.u64();
  return reply;
}

RunStatusReply decode_run_status_reply(wire::ByteReader& r) {
  check_reply_status(r);
  RunStatusReply reply;
  reply.run_state = decode_run_state(r);
  reply.config_hash = r.u64();
  reply.leases_total = r.u64();
  reply.leases_complete = r.u64();
  reply.leases_claimed = r.u64();
  return reply;
}

}  // namespace sckl::serve
