// Random-field sampler interface, staged into latent generation and
// reconstruction.
//
// Both Monte Carlo STA variants of the paper need, for each statistical
// parameter, an N x N_g matrix of correlated samples at the gate locations:
// Algorithm 1 builds it from the dense Cholesky factor of the gate-location
// covariance matrix; Algorithm 2 from the truncated KLE reconstruction.
// This interface abstracts the two so the SSTA harness is sampler-agnostic,
// which is precisely the experimental control the paper wants (identical
// timer, different sample generators).
//
// The sampling contract has two orthogonal halves:
//
// 1. Index addressing (where the randomness comes from). Sampling is
//    *index-addressed and stateless*: a block is requested as a half-open
//    range [first, first + count) of global sample indices plus the
//    StreamKey of the parameter's random stream, and latent draw (i, c) is
//    derived through the counter-based generator as
//    CounterRng(key).normal(global_index, lane) — row i of a block is
//    global sample range.first + i, lane c is latent coordinate c. No RNG
//    state threads through the calls, so sample i is bit-identical
//    regardless of block size, request order, or which thread produced it —
//    the property the parallel MC-SSTA engine's determinism guarantee
//    rests on.
//
// 2. Staging (how a block is produced). Every sampler factors into
//       latent_block:  (range, key)  ->  Xi    (count x latent_dimension)
//       reconstruct:    Xi           ->  block (count x num_locations)
//    latent_block is pure index-addressed draw generation and is shared by
//    every sampler (same addressing scheme, batched Acklam inverse-normal);
//    reconstruct is one cache-blocked GEMM against the sampler's
//    reconstruction operator (D_lambda^T for KLE, L^T for Cholesky, the PCA
//    operator for the grid model) — see linalg/gemm.h for the kernel's own
//    determinism contract (fixed per-element fma reduction order, so
//    scalar/AVX2/AVX-512 dispatch and any block shape give identical bits).
//    sample_block is the composed convenience and is exactly
//    latent_block + reconstruct; callers that manage their own latent
//    scratch (the MC block pipeline, the serve daemon's SampleBlock chunks)
//    call the stages directly and size blocks for the kernel.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace sckl::obs {
class Counter;
}  // namespace sckl::obs

namespace sckl::field {

/// Half-open range [first, first + count) of global sample indices.
struct SampleRange {
  std::uint64_t first = 0;
  std::size_t count = 0;
};

/// Generates blocks of correlated field samples at fixed locations.
class FieldSampler {
 public:
  virtual ~FieldSampler() = default;

  /// Number of sample locations (columns of a sample block).
  virtual std::size_t num_locations() const = 0;

  /// Dimensionality of the underlying independent-normal draw per sample
  /// (N_g for Cholesky, r for KLE) — the paper's headline reduction.
  virtual std::size_t latent_dimension() const = 0;

  /// Stage 1: fills `xi` (reshaped in place to range.count x
  /// latent_dimension(), allocation reused) with the independent
  /// standard-normal latent draws for `range` under `key`:
  /// xi(i, c) = CounterRng(key).normal(range.first + i, c).
  /// The default implementation is the shared index-addressed scheme;
  /// samplers only override it if they consume a different latent law.
  virtual void latent_block(const SampleRange& range, const StreamKey& key,
                            linalg::Matrix& xi) const;

  /// Stage 2: reconstructs correlated samples from latents: `out` is
  /// reshaped to xi.rows() x num_locations(); row i is the field at the
  /// sample whose latents are row i of `xi`. Requires xi.cols() ==
  /// latent_dimension(). `xi` and `out` must be distinct objects.
  virtual void reconstruct(const linalg::Matrix& xi,
                           linalg::Matrix& out) const = 0;

  /// Composed convenience: latent_block + reconstruct through an internal
  /// per-thread latent scratch. Fills `out` (range.count x num_locations,
  /// reshaped) with the samples of the normalized field whose global
  /// indices fall in `range`, drawn from the stream identified by `key`.
  /// Row i of `out` is global sample range.first + i; rows are independent
  /// samples. Bit-identical to calling the stages with any caller-owned
  /// scratch.
  void sample_block(const SampleRange& range, const StreamKey& key,
                    linalg::Matrix& out) const;
};

/// Base for samplers whose reconstruction is a single linear operator:
/// out = Xi * Op with Op stored pre-transposed as latent_dimension x
/// num_locations, so reconstruct() is one row-major GEMM with no transposed
/// operand in the hot path. This is all three shipped samplers (KLE,
/// Cholesky, grid PCA); they differ only in how the operator is built.
class LinearFieldSampler : public FieldSampler {
 public:
  std::size_t num_locations() const override { return op_t_.cols(); }
  std::size_t latent_dimension() const override { return op_t_.rows(); }
  void reconstruct(const linalg::Matrix& xi,
                   linalg::Matrix& out) const override;

  /// The reconstruction operator, stored transposed (latent_dimension x
  /// num_locations).
  const linalg::Matrix& operator_transposed() const { return op_t_; }

  /// Bytes of that operator, the one matrix a linear sampler holds: what a
  /// cache should charge.
  std::size_t matrix_bytes() const {
    return op_t_.rows() * op_t_.cols() * sizeof(double);
  }

 protected:
  LinearFieldSampler() = default;

  /// Installs the transposed operator plus the observability identity used
  /// by reconstruct(): `span_name` must outlive the sampler (string
  /// literal), `counter_name` is a registered metrics counter or nullptr.
  void set_operator(linalg::Matrix op_transposed, const char* span_name,
                    const char* counter_name);

 private:
  linalg::Matrix op_t_;
  const char* span_name_ = "field.reconstruct";
  obs::Counter* samples_ = nullptr;
};

/// Fills `xi` (reshaped to range.count x dimension) with the independent
/// standard normal latent draws for `range` under `key`: xi(i, c) =
/// CounterRng(key).normal(range.first + i, c), generated row-at-a-time via
/// CounterRng::normal_row. Shared by every sampler so all of them agree on
/// the draw-addressing scheme.
void fill_latent_normals(const SampleRange& range, const StreamKey& key,
                         std::size_t dimension, linalg::Matrix& xi);

}  // namespace sckl::field
