#include "store/kle_io.h"

#include <array>
#include <bit>
#include <cstdio>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/error.h"
#include "robust/fault_injection.h"

namespace sckl::store {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'S', 'C', 'K', 'L'};

// The byte-level codec lives in common/wire.h so the serve protocol shares
// it; this file keeps only the artifact-specific structure.
using wire::put_f64;
using wire::put_string;
using wire::put_u32;
using wire::put_u64;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return wire::crc32(data, size);
}

core::KleResult solve_artifact(const KleArtifactConfig& config,
                               const kernels::CovarianceKernel& kernel) {
  core::KleOptions options;
  options.num_eigenpairs = static_cast<std::size_t>(config.num_eigenpairs);
  options.quadrature = config.quadrature;
  return core::solve_kle(config.mesh.build(config.die), kernel, options);
}

void append_artifact_config(std::vector<std::uint8_t>& out,
                            const KleArtifactConfig& config) {
  put_string(out, config.kernel_id);
  put_u32(out, static_cast<std::uint32_t>(config.kernel_params.size()));
  for (double p : config.kernel_params) put_f64(out, p);
  put_f64(out, config.die.min.x);
  put_f64(out, config.die.min.y);
  put_f64(out, config.die.max.x);
  put_f64(out, config.die.max.y);
  put_u32(out, static_cast<std::uint32_t>(config.mesh.kind));
  put_u64(out, config.mesh.target_triangles);
  put_f64(out, config.mesh.area_fraction);
  put_u64(out, config.mesh.mesher_seed);
  put_u32(out, static_cast<std::uint32_t>(config.quadrature));
  put_u64(out, config.num_eigenpairs);
}

KleArtifactConfig read_artifact_config(wire::ByteReader& r) {
  KleArtifactConfig config;
  config.kernel_id = r.string();
  const std::uint32_t num_params = r.u32();
  // need_count, not need(num_params * 8): the product wraps in u32
  // arithmetic for num_params > 2^29 and would pass the check.
  r.need_count(num_params, 8, "kernel params");
  config.kernel_params.resize(num_params);
  for (auto& p : config.kernel_params) p = r.f64();
  config.die.min.x = r.f64();
  config.die.min.y = r.f64();
  config.die.max.x = r.f64();
  config.die.max.y = r.f64();
  const std::uint32_t mesh_kind = r.u32();
  if (mesh_kind > static_cast<std::uint32_t>(MeshSpec::Kind::kPaperRefined))
    throw Error("kle_io: unknown mesh spec kind " + std::to_string(mesh_kind),
                r.code());
  config.mesh.kind = static_cast<MeshSpec::Kind>(mesh_kind);
  config.mesh.target_triangles = r.u64();
  config.mesh.area_fraction = r.f64();
  config.mesh.mesher_seed = r.u64();
  const std::uint32_t quadrature = r.u32();
  if (quadrature > static_cast<std::uint32_t>(core::QuadratureRule::kSymmetric7))
    throw Error("kle_io: unknown quadrature rule " + std::to_string(quadrature),
                r.code());
  config.quadrature = static_cast<core::QuadratureRule>(quadrature);
  config.num_eigenpairs = r.u64();
  return config;
}

std::vector<std::uint8_t> encode_kle(const KleArtifactConfig& config,
                                     const core::KleResult& kle) {
  std::vector<std::uint8_t> payload;
  const mesh::TriMesh& mesh = kle.mesh();
  payload.reserve(64 + config.kernel_id.size() +
                  mesh.num_vertices() * 16 + mesh.num_triangles() * 24 +
                  kle.eigenvalues().size() * 8 +
                  kle.coefficients().rows() * kle.coefficients().cols() * 8);

  append_artifact_config(payload, config);

  // Mesh.
  put_u64(payload, mesh.num_vertices());
  put_u64(payload, mesh.num_triangles());
  for (const auto& v : mesh.vertices()) {
    put_f64(payload, v.x);
    put_f64(payload, v.y);
  }
  for (const auto& t : mesh.triangle_indices())
    for (std::size_t corner : t) put_u64(payload, corner);

  // Spectrum.
  put_u64(payload, kle.eigenvalues().size());
  for (double lambda : kle.eigenvalues()) put_f64(payload, lambda);
  const linalg::Matrix& d = kle.coefficients();
  put_u64(payload, d.rows());
  put_u64(payload, d.cols());
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j) put_f64(payload, d(i, j));

  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 20);
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  put_u32(out, kKleFormatVersion);
  put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, crc32(payload.data(), payload.size()));
  return out;
}

StoredKleResult decode_kle(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 20)
    throw Error("kle_io: truncated artifact (shorter than header)",
                ErrorCode::kCorruptArtifact);
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin()))
    throw Error("kle_io: bad magic (not a .sckl artifact)",
                ErrorCode::kCorruptArtifact);

  wire::ByteReader header(bytes.data() + 4, bytes.size() - 4,
                          ErrorCode::kCorruptArtifact, "kle artifact header");
  const std::uint32_t version = header.u32();
  if (version != kKleFormatVersion)
    throw Error("kle_io: unsupported format version " +
                    std::to_string(version) + " (this build reads version " +
                    std::to_string(kKleFormatVersion) + ")",
                ErrorCode::kCorruptArtifact);
  const std::uint64_t payload_size = header.u64();
  if (bytes.size() < 16 + payload_size + 4)
    throw Error("kle_io: truncated artifact (payload shorter than header "
                "declares)",
                ErrorCode::kCorruptArtifact);
  const std::uint8_t* payload = bytes.data() + 16;

  wire::ByteReader trailer(payload + payload_size, 4,
                           ErrorCode::kCorruptArtifact, "kle artifact crc");
  const std::uint32_t stored_crc = trailer.u32();
  const std::uint32_t actual_crc =
      crc32(payload, static_cast<std::size_t>(payload_size));
  if (stored_crc != actual_crc)
    throw Error("kle_io: checksum mismatch (artifact is corrupted)",
                ErrorCode::kCorruptArtifact);

  wire::ByteReader r(payload, static_cast<std::size_t>(payload_size),
                     ErrorCode::kCorruptArtifact, "kle artifact");

  KleArtifactConfig config = read_artifact_config(r);

  const std::uint64_t num_vertices = r.u64();
  const std::uint64_t num_triangles = r.u64();
  // Guard the multiplications below against absurd counts from a payload
  // that passed CRC (e.g. a hand-built file).
  if (num_vertices > payload_size || num_triangles > payload_size)
    throw Error("kle_io: implausible mesh size in artifact",
                ErrorCode::kCorruptArtifact);
  std::vector<geometry::Point2> vertices(num_vertices);
  for (auto& v : vertices) {
    v.x = r.f64();
    v.y = r.f64();
  }
  std::vector<mesh::TriMesh::TriangleIndices> triangles(num_triangles);
  for (auto& t : triangles)
    for (auto& corner : t) corner = static_cast<std::size_t>(r.u64());
  mesh::TriMesh mesh(std::move(vertices), std::move(triangles));

  const std::uint64_t num_values = r.u64();
  if (num_values > payload_size)
    throw Error("kle_io: implausible eigenvalue count in artifact",
                ErrorCode::kCorruptArtifact);
  linalg::Vector eigenvalues(num_values);
  for (auto& lambda : eigenvalues) lambda = r.f64();

  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  if (rows > payload_size || cols > payload_size)
    throw Error("kle_io: implausible coefficient shape in artifact",
                ErrorCode::kCorruptArtifact);
  linalg::Matrix coefficients(static_cast<std::size_t>(rows),
                              static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < coefficients.rows(); ++i)
    for (std::size_t j = 0; j < coefficients.cols(); ++j)
      coefficients(i, j) = r.f64();

  if (r.remaining() != 0)
    throw Error("kle_io: trailing bytes after payload (corrupt or "
                "mis-declared size)",
                ErrorCode::kCorruptArtifact);

  return {std::move(config),
          core::KleResult(std::move(mesh), std::move(eigenvalues),
                          std::move(coefficients))};
}

void write_kle_file(const std::string& path, const KleArtifactConfig& config,
                    const core::KleResult& kle) {
  if (robust::fault_injected(robust::FaultSite::kStoreWrite))
    throw Error("kle_io: write failure injected at fault site 'store_write' "
                "for '" + path + "'",
                ErrorCode::kIoTransient);
  const std::vector<std::uint8_t> bytes = encode_kle(config, kle);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw Error("kle_io: cannot open '" + path + "' for writing",
                ErrorCode::kIoTransient);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool durable = std::fflush(f) == 0;
  // A crash here leaves the bytes in the page cache only; after a real power
  // loss the tmp file may be empty, torn, or absent — never the final name.
  robust::crash_point(robust::FaultSite::kStoreWritePreFsync);
#if defined(__unix__) || defined(__APPLE__)
  durable = durable && ::fsync(::fileno(f)) == 0;
#endif
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !durable || !closed)
    throw Error("kle_io: short write to '" + path + "'",
                ErrorCode::kIoTransient);
}

void fsync_directory(const std::string& dir) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)dir;
#endif
}

StoredKleResult read_kle_file(const std::string& path) {
  if (robust::fault_injected(robust::FaultSite::kStoreRead))
    throw Error("kle_io: read failure injected at fault site 'store_read' "
                "for '" + path + "'",
                ErrorCode::kIoTransient);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw Error("kle_io: cannot open '" + path + "' for reading",
                ErrorCode::kIoTransient);
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> chunk;
  std::size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), f)) > 0)
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + got);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error)
    throw Error("kle_io: read error on '" + path + "'",
                ErrorCode::kIoTransient);
  try {
    return decode_kle(bytes);
  } catch (const Error& e) {
    // Preserve the code — the artifact store dispatches on it (transient ->
    // retry, corrupt -> quarantine).
    throw e.with_context("kle_io: while reading '" + path + "'");
  }
}

}  // namespace sckl::store
