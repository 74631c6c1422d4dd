// Cache-blocked GEMM/GEMV with runtime SIMD dispatch and a bit-exact
// determinism contract.
//
// This is the sampling hot path: every field sampler reduces a block of
// samples to one `samples x r x locations` product (Algorithm 2's
// p_delta = D_lambda xi applied to a whole latent matrix at once), so the
// kernels here set the throughput ceiling for Monte Carlo SSTA and the
// serving layer above it.
//
// Determinism contract (the PR 4 invariant, extended to SIMD):
//
//   Every output element C(i, j) is computed as a single fused-multiply-add
//   chain over k in strictly ascending order:
//
//     c = 0 (or the prior C value for gemm_add)
//     for k = 0 .. K-1:  c = fma(A(i,k), B(k,j), c)
//
//   Three properties make the result bit-identical everywhere:
//    1. fma is correctly rounded (IEEE 754), in hardware (vfmadd) and in
//       the libm fallback alike, so the same chain gives the same bits on
//       any target.
//    2. Vectorization is only ever across *output elements* (SIMD lanes
//       hold different j's), never across k within one element, so the
//       per-element chain order is target-independent.
//    3. Spilling a partial sum to memory and reloading it is exact for
//       doubles, so cache blocking in k (and any i/j partitioning) cannot
//       perturb bits either.
//
//   Consequently scalar, AVX2/FMA, and AVX-512 kernels agree bit-for-bit,
//   as do any block shapes and thread partitions built on top of them.
//   The kernels deliberately avoid value-dependent shortcuts (e.g. the
//   naive gemm's skip of zero A elements, which is not bit-safe for -0.0
//   or NaN propagation).
//
// Dispatch: the widest target supported by the CPU is detected once via
// cpuid (__builtin_cpu_supports) and can be narrowed with the SCKL_SIMD
// environment variable ("scalar", "avx2", "avx512") or the
// set_simd_target() test hook. Requesting a target the CPU lacks falls
// back to the detected one; "scalar" is always honored. On hardware with
// FMA the scalar path still uses the hardware instruction (same bits,
// libm-call speed avoided), so forcing "scalar" tests the portable code
// path without a 20x slowdown.
#pragma once

#include <cstddef>

#include "linalg/matrix.h"

namespace sckl::linalg {

/// Instruction-set targets for the blocked kernels, narrowest first.
enum class SimdTarget { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Short lowercase name ("scalar", "avx2", "avx512") for logs and bench
/// records.
const char* simd_target_name(SimdTarget target);

/// Widest target this CPU supports (cpuid, computed once).
SimdTarget detected_simd_target();

/// True when `target` can run on this CPU. kScalar is always supported.
bool simd_target_supported(SimdTarget target);

/// Target the kernels will actually use: the SCKL_SIMD override (resolved
/// once, on first use) clamped to what the CPU supports, else the detected
/// target, unless set_simd_target() replaced it.
SimdTarget active_simd_target();

/// Test hook: forces the active target. Requires simd_target_supported().
void set_simd_target(SimdTarget target);

/// Undoes set_simd_target(), returning to the SCKL_SIMD / detected
/// resolution.
void reset_simd_target();

/// C += A * B (A: m x k, B: k x n, C: m x n, shapes must already agree).
void gemm_add(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B, reshaping C to m x n (allocation reused when large enough).
void gemm_into(const Matrix& a, const Matrix& b, Matrix& c);

/// Returns A * B.
Matrix gemm_fast(const Matrix& a, const Matrix& b);

/// C -= A * B^T on row-major views (A: m x k, B: n x k, C: m x n, with row
/// strides lda, ldb, ldc; C must overlap neither input). Each C(i, j)
/// continues from its stored value as c = fma(-A(i,k), B(j,k), c) for k
/// ascending: gemm_add's one chain, with its bits on every target. This is
/// the blocked Cholesky's panel update (linalg/cholesky.h), whose three
/// views are disjoint blocks of one matrix.
void gemm_sub_abt(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc);

/// True when the CPU has hardware fma (cpuid, computed once). Scalar fma
/// chains then run under target("fma"): the libm call's bits, at hardware
/// speed.
bool hardware_fma();

/// y = A * x with the same determinism contract: each y(i) is an 8-lane
/// interleaved fma chain (lane l accumulates elements k = l mod 8) folded
/// by a fixed pairwise tree, identical across all targets.
Vector gemv_fast(const Matrix& a, const Vector& x);

/// Rows [begin, end) of A * x into y[begin..end): the same per-row chain
/// as gemv_fast, so any row partition gives gemv_fast's bits. The threaded
/// Lanczos matvec (DenseKernelOperator) gives each worker one range.
void gemv_rows(const Matrix& a, const Vector& x, std::size_t begin,
               std::size_t end, double* y);

/// y = A^T * x (A: k x n, x: k, y: n), computed column-major-free as k
/// ascending fma chains per output — bit-identical to the corresponding
/// row of gemm_fast(x_as_row, A). This keeps single-vector reconstruction
/// consistent with block reconstruction.
Vector gemv_transposed_fast(const Matrix& a, const Vector& x);

}  // namespace sckl::linalg
