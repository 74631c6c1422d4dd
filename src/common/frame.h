// Length-prefixed binary framing for the serve protocol.
//
// Every message in either direction is one frame:
//
//   offset  size  field
//   0       4     magic "SCKF"
//   4       4     u32 protocol version (kProtocolVersion)
//   8       4     u32 message type
//   12      4     u32 deadline_ms (requests: 0 = none; replies: 0)
//   16      8     u64 request id (echoed verbatim in the reply)
//   24      8     u64 payload size P in bytes
//   32      P     payload (message-specific, see serve/protocol.h)
//   32+P    4     u32 CRC-32 (IEEE 802.3) of the payload bytes
//
// read_frame() deliberately does NOT reject version mismatches: the header
// layout is stable across versions, so the server can still parse the
// request id of a newer client's frame and answer with a *typed* version-
// mismatch error instead of dropping the connection silently. What it does
// reject, with ErrorCode::kProtocol, is structural garbage: bad magic,
// payload sizes above the caller's limit (a hostile length prefix must
// never cause a giant allocation), and CRC mismatches.
#pragma once

#include <cstdint>
#include <vector>

namespace sckl::wire {

/// "SCKF" interpreted as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x464B4353u;

/// Version of the serve wire protocol (header + payload schemas).
/// v4: the ClaimLeases reply carries the coordinator's RunSsta request (m
/// resolved) and the run's ledger header through their own codecs, in
/// place of field-by-field copies of both; every other message is as in v3.
/// v3: distributed Monte Carlo — ClaimLeases / PublishPartial / Heartbeat /
/// RunStatus message types, and RunSsta gained distributed / mc_block_size /
/// mc_lease_blocks in the request.
/// v2: RunSsta gained run_id/resume in the request and the tail quantiles
/// (p99, p99.9) + resumed_leases in the reply.
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Fixed size of the encoded header (magic through payload size).
inline constexpr std::size_t kFrameHeaderBytes = 32;

/// Everything in a frame except the payload bytes themselves.
struct FrameHeader {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t type = 0;
  std::uint32_t deadline_ms = 0;
  std::uint64_t request_id = 0;
  std::uint64_t payload_size = 0;
};

/// Serializes and writes one complete frame (header + payload + CRC).
/// `header.payload_size` is taken from `payload`, not the struct field.
/// Throws sckl::Error(kIoTransient) on socket failure.
void write_frame(int fd, const FrameHeader& header,
                 const std::vector<std::uint8_t>& payload);

/// Reads one complete frame. Returns false on clean EOF at a frame
/// boundary. Throws sckl::Error with:
///   kProtocol     bad magic, payload size > max_payload, CRC mismatch
///   kIoTransient  socket error or EOF mid-frame
/// Version mismatches are NOT rejected here — check header.version.
bool read_frame(int fd, std::size_t max_payload, FrameHeader& header,
                std::vector<std::uint8_t>& payload);

}  // namespace sckl::wire
