// Versioned binary serialization of solved KLEs.
//
// File layout (all multi-byte fields little-endian; doubles stored as their
// IEEE-754 bit patterns in a u64):
//
//   offset  size  field
//   0       4     magic "SCKL"
//   4       4     u32 format version (currently 1)
//   8       8     u64 payload size P in bytes
//   16      P     payload (below)
//   16+P    4     u32 CRC-32 (IEEE 802.3) of the payload bytes
//
// Payload, in order:
//   artifact config   kernel_id (u32 length + bytes), u32 param count +
//                     params (f64), die rectangle (4 f64), mesh spec
//                     (u32 kind, u64 target_triangles, f64 area_fraction,
//                     u64 mesher_seed), u32 quadrature, u64 num_eigenpairs
//   mesh              u64 num_vertices, u64 num_triangles, vertices
//                     (2 f64 each), triangle index triples (3 u64 each)
//   eigenvalues       u64 m, m f64 (descending, post-clamp)
//   coefficients      u64 rows, u64 cols, rows*cols f64 row-major
//
// Readers reject, with a diagnostic sckl::Error, anything that is truncated,
// carries the wrong magic, an unsupported version, or a payload whose CRC
// does not match — corruption is never silently accepted. Round-trips are
// bit-exact: every double survives unchanged through the u64 bit pattern.
//
// The artifact is the (config, result) pair: the config keys the file, and
// core::KleResult owns the mesh it was solved on, so a decoded artifact
// needs nothing else to stay usable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/wire.h"
#include "store/key_hash.h"

namespace sckl::store {

/// Current serialization format version.
inline constexpr std::uint32_t kKleFormatVersion = 1;

/// One decoded artifact file: the config it was solved for and the result.
struct StoredKleResult {
  KleArtifactConfig config;
  core::KleResult kle;
};

/// Solves the KLE described by `config` with `kernel` (the cache-miss path
/// of the artifact store).
core::KleResult solve_artifact(const KleArtifactConfig& config,
                               const kernels::CovarianceKernel& kernel);

/// Appends the artifact-config section of the payload (kernel id + params,
/// die rectangle, mesh spec, quadrature, eigenpair count) to `out`. Shared
/// with the serve protocol (serve/protocol.cpp), so a KleArtifactConfig is
/// encoded identically on disk and on the wire.
void append_artifact_config(std::vector<std::uint8_t>& out,
                            const KleArtifactConfig& config);

/// Inverse of append_artifact_config. Rejects unknown mesh-spec kinds and
/// quadrature rules; all errors carry the reader's error code (corrupt
/// artifact for files, protocol for network frames).
KleArtifactConfig read_artifact_config(wire::ByteReader& r);

/// Serializes `kle`, solved for `config`, to the format described above.
std::vector<std::uint8_t> encode_kle(const KleArtifactConfig& config,
                                     const core::KleResult& kle);

/// Parses an encoded artifact; throws sckl::Error on truncation, bad magic,
/// unsupported version, or checksum mismatch.
StoredKleResult decode_kle(const std::vector<std::uint8_t>& bytes);

/// Writes the encoded (config, kle) artifact to `path` durably: the bytes
/// are flushed *and fsync'd* before the call returns, so a subsequent rename
/// of `path` publishes a file whose content survives power loss. Not atomic
/// by itself — the artifact store wraps this in a tmp-file + rename +
/// directory-fsync dance; direct callers get plain (but durable) semantics.
/// I/O failures throw sckl::Error with code kIoTransient (the store retries
/// these); the deterministic fault site `store_write` injects here, and the
/// crash point `store_write_pre_fsync` kills the process between write and
/// fsync.
void write_kle_file(const std::string& path, const KleArtifactConfig& config,
                    const core::KleResult& kle);

/// fsyncs the directory `dir` so a just-renamed entry in it is durable (on
/// POSIX, rename durability requires syncing the containing directory).
/// Failures are swallowed: by this point the artifact is already published
/// and readable, only its crash-durability is weakened.
void fsync_directory(const std::string& dir);

/// Reads and validates an artifact file. I/O failures throw with code
/// kIoTransient (retryable); decode/validation failures with code
/// kCorruptArtifact (the store quarantines these). The deterministic fault
/// site `store_read` injects a transient failure here.
StoredKleResult read_kle_file(const std::string& path);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte range.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

}  // namespace sckl::store
