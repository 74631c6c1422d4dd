#include "store/key_hash.h"

#include <bit>
#include <cstring>

#include "common/error.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "mesh/structured_mesher.h"

namespace sckl::store {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

mesh::TriMesh MeshSpec::build(const geometry::BoundingBox& die) const {
  switch (kind) {
    case Kind::kStructuredCross:
      return mesh::structured_mesh_for_count(
          die, target_triangles, mesh::StructuredPattern::kCross);
    case Kind::kStructuredDiagonal:
      return mesh::structured_mesh_for_count(
          die, target_triangles, mesh::StructuredPattern::kDiagonal);
    case Kind::kPaperRefined:
      return mesh::paper_mesh(die, area_fraction, mesher_seed);
  }
  throw Error("MeshSpec::build: unknown mesh kind");
}

void ContentHasher::update(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= kFnvPrime;
  }
}

void ContentHasher::update_u32(std::uint32_t v) {
  // Feed bytes LSB-first regardless of host endianness so keys are
  // platform-stable.
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  update(bytes, sizeof(bytes));
}

void ContentHasher::update_u64(std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  update(bytes, sizeof(bytes));
}

void ContentHasher::update_double(double v) {
  update_u64(std::bit_cast<std::uint64_t>(v));
}

void ContentHasher::update_string(const std::string& s) {
  update_u64(s.size());
  update(s.data(), s.size());
}

std::uint64_t ContentHasher::digest() const { return splitmix64(state_); }

std::uint64_t artifact_key(const KleArtifactConfig& config) {
  ContentHasher h;
  // Each field group is preceded by a tag byte so that adjacent
  // variable-length fields cannot alias (e.g. kernel_id bytes vs params).
  h.update_u32('K');
  h.update_string(config.kernel_id);
  h.update_u64(config.kernel_params.size());
  for (double p : config.kernel_params) h.update_double(p);
  h.update_u32('D');
  h.update_double(config.die.min.x);
  h.update_double(config.die.min.y);
  h.update_double(config.die.max.x);
  h.update_double(config.die.max.y);
  h.update_u32('M');
  h.update_u32(static_cast<std::uint32_t>(config.mesh.kind));
  h.update_u64(config.mesh.target_triangles);
  h.update_double(config.mesh.area_fraction);
  h.update_u64(config.mesh.mesher_seed);
  h.update_u32('Q');
  h.update_u32(static_cast<std::uint32_t>(config.quadrature));
  h.update_u32('E');
  h.update_u64(config.num_eigenpairs);
  return h.digest();
}

std::string key_string(std::uint64_t key) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[key & 0xF];
    key >>= 4;
  }
  return out;
}

void describe_kernel(const kernels::CovarianceKernel& kernel,
                     std::string& id, std::vector<double>& params) {
  using namespace kernels;
  if (const auto* k = dynamic_cast<const GaussianKernel*>(&kernel)) {
    id = "gaussian";
    params = {k->c()};
  } else if (const auto* k = dynamic_cast<const ExponentialKernel*>(&kernel)) {
    id = "exponential";
    params = {k->c()};
  } else if (const auto* k = dynamic_cast<const SeparableL1Kernel*>(&kernel)) {
    id = "separable_l1";
    params = {k->c()};
  } else if (const auto* k = dynamic_cast<const MaternKernel*>(&kernel)) {
    id = "matern";
    params = {k->b(), k->s()};
  } else if (const auto* k = dynamic_cast<const LinearConeKernel*>(&kernel)) {
    id = "linear_cone";
    params = {k->rho()};
  } else if (const auto* k =
                 dynamic_cast<const RadialMagnitudeKernel*>(&kernel)) {
    id = "radial_magnitude";
    params = {k->c()};
  } else if (const auto* k = dynamic_cast<const SphericalKernel*>(&kernel)) {
    id = "spherical";
    params = {k->rho()};
  } else {
    // A kernel defined outside the library: name() is all there is.
    id = kernel.name();
    params.clear();
  }
}

std::unique_ptr<kernels::CovarianceKernel> make_kernel(
    const std::string& id, const std::vector<double>& params) {
  using namespace kernels;
  const auto want = [&](std::size_t n) {
    require(params.size() == n,
            "make_kernel: kernel '" + id + "' takes " + std::to_string(n) +
                " parameter(s), got " + std::to_string(params.size()));
  };
  if (id == "gaussian") {
    want(1);
    return std::make_unique<GaussianKernel>(params[0]);
  }
  if (id == "exponential") {
    want(1);
    return std::make_unique<ExponentialKernel>(params[0]);
  }
  if (id == "separable_l1") {
    want(1);
    return std::make_unique<SeparableL1Kernel>(params[0]);
  }
  if (id == "matern") {
    want(2);
    return std::make_unique<MaternKernel>(params[0], params[1]);
  }
  if (id == "linear_cone") {
    want(1);
    return std::make_unique<LinearConeKernel>(params[0]);
  }
  if (id == "radial_magnitude") {
    want(1);
    return std::make_unique<RadialMagnitudeKernel>(params[0]);
  }
  if (id == "spherical") {
    want(1);
    return std::make_unique<SphericalKernel>(params[0]);
  }
  throw Error("make_kernel: unknown kernel id '" + id + "'",
              ErrorCode::kPrecondition);
}

}  // namespace sckl::store
