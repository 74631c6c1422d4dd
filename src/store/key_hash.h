// Content-hash keys for solved-KLE artifacts.
//
// A KLE is fully determined by (kernel, die, mesh, quadrature rule, number of
// eigenpairs) — Algorithm 2 of the paper consumes the decomposition without
// caring how it was produced. KleArtifactConfig captures exactly those
// fields; artifact_key() folds a canonical little-endian encoding of them
// through 64-bit FNV-1a and finishes with the SplitMix64 mixer, giving a
// stable, platform-independent key. Two configs share a key iff every field
// is bit-identical (doubles are hashed by IEEE-754 bit pattern, so -0.0 and
// 0.0 differ — callers should normalize if they care).
//
// Deliberately excluded from the key: the eigensolver backend and the
// Lanczos seed. Those change the floating-point noise of the solve, not the
// mathematical object being approximated; including them would fragment the
// cache across equivalent solves.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/kle_solver.h"
#include "geometry/point2.h"
#include "kernels/covariance_kernel.h"
#include "mesh/tri_mesh.h"

namespace sckl::store {

/// How to (re)build the mesh of an artifact on a cache miss.
struct MeshSpec {
  enum class Kind : std::uint32_t {
    kStructuredCross = 0,    // structured_mesh_for_count, cross split
    kStructuredDiagonal = 1, // structured_mesh_for_count, diagonal split
    kPaperRefined = 2,       // mesh::paper_mesh (Delaunay + refinement)
  };

  Kind kind = Kind::kStructuredCross;
  std::uint64_t target_triangles = 1546;  // structured kinds: count target
  double area_fraction = 0.001;           // kPaperRefined: max area fraction
  std::uint64_t mesher_seed = 1;          // kPaperRefined: refinement seed

  /// Materializes the mesh on `die`.
  mesh::TriMesh build(const geometry::BoundingBox& die) const;
};

/// Everything that identifies one solved KLE artifact.
struct KleArtifactConfig {
  std::string kernel_id;              // family name, e.g. "gaussian"
  std::vector<double> kernel_params;  // family parameters, e.g. {c}
  geometry::BoundingBox die = geometry::BoundingBox::unit_die();
  MeshSpec mesh;
  core::QuadratureRule quadrature = core::QuadratureRule::kCentroid1;
  std::uint64_t num_eigenpairs = 50;
};

/// Incremental FNV-1a 64-bit hasher over raw bytes with a SplitMix64
/// finalizer. Exposed for reuse (and so tests can pin the avalanche).
class ContentHasher {
 public:
  void update(const void* data, std::size_t size);
  void update_u32(std::uint32_t v);
  void update_u64(std::uint64_t v);
  void update_double(double v);  // by IEEE-754 bit pattern
  void update_string(const std::string& s);  // length-prefixed

  /// SplitMix64-mixed digest of everything fed so far.
  std::uint64_t digest() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// 64-bit content key of an artifact configuration.
std::uint64_t artifact_key(const KleArtifactConfig& config);

/// The key as a fixed-width lowercase hex string (the on-disk file stem).
std::string key_string(std::uint64_t key);

/// Structural descriptor of a kernel: family id plus exact parameter values
/// for every type in kernels/kernel_library.h, so make_kernel() rebuilds a
/// library kernel bit for bit. A kernel defined outside the library falls
/// back to (name(), {}), which keys it only as finely as name() prints its
/// parameters and which make_kernel() cannot rebuild.
void describe_kernel(const kernels::CovarianceKernel& kernel,
                     std::string& id, std::vector<double>& params);

/// Inverse of describe_kernel for the structurally-described families
/// ("gaussian", "exponential", "separable_l1", "matern", "linear_cone",
/// "radial_magnitude", "spherical"). Lets a remote peer name a kernel by
/// (id, params) alone — the serve daemon rebuilds it from a SolveKle
/// request. Throws sckl::Error(kPrecondition) for an unknown id or a wrong
/// parameter count, so a bad request yields a typed error, not a crash.
std::unique_ptr<kernels::CovarianceKernel> make_kernel(
    const std::string& id, const std::vector<double>& params);

/// The KLE a command line names: the one flag parser behind
/// `kle_store_tool build` and `sckl_serve solve`, so both name the same
/// artifact for the same flags. Reads the kernel family and parameters
/// (--kernel=gaussian|exponential|separable_l1|matern|linear_cone, --c,
/// --b, --s, --rho), then --mesh=cross|diagonal|paper, --triangles=1546,
/// --area-fraction=0.001, --mesh-seed=1, --quadrature=1|3|7 and --pairs=50.
/// An unset --c means the paper's fitted Gaussian c, or 1 for the other
/// c-families. Unknown families or mesh kinds, other quadrature orders and
/// negative counts throw sckl::Error(kPrecondition). Build the kernel with
/// make_kernel(config.kernel_id, config.kernel_params).
KleArtifactConfig parse_kle_config(const CliFlags& flags);

}  // namespace sckl::store
