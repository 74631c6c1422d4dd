#include "linalg/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"

#if defined(__x86_64__) || defined(__i386__)
#define SCKL_X86 1
#include <immintrin.h>
#endif

namespace sckl::linalg {
namespace {

// Cache blocking constants. These are shared by every target: the k panel
// boundary is where partial sums round-trip through memory (exact for
// doubles, so bits are unaffected), and the j panel bounds the packed-B
// scratch. kKc * kNc doubles = 1 MiB of packed panel, sized for L2.
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 512;

// One micro-kernel call updates `rows` rows of C over one packed B panel:
//   C[r][0..w) += sum_k a[r*lda + k] * bp[k*nr + j]
// with the fma chain ascending in k. `bp` is the packed kc x nr panel
// (zero-padded past w); `w <= nr` is the valid column count.
using MicroKernel = void (*)(const double* a, std::size_t lda,
                             const double* bp, double* c, std::size_t ldc,
                             std::size_t kc, std::size_t w, bool load_c);

struct KernelSet {
  MicroKernel rows4;  // 4-row kernel, nullptr when the target has none
  MicroKernel rows1;  // 1-row kernel (row tails, scalar fallback)
  std::size_t nr;     // packed panel width
};

// ---------------------------------------------------------------------------
// Scalar kernels (portable fallback). The body is an always_inline helper so
// it can be instantiated twice: once at the default target (std::fma lowers
// to the correctly-rounded libm call) and once under target("fma") where the
// very same chain lowers to hardware vfmadd — identical bits, ~20x faster.

__attribute__((always_inline)) inline void scalar_rows1_body(
    const double* a, const double* bp, double* c, std::size_t kc,
    std::size_t w, bool load_c) {
  if (w == 8) {
    double acc[8];
    for (int j = 0; j < 8; ++j) acc[j] = load_c ? c[j] : 0.0;
    for (std::size_t k = 0; k < kc; ++k) {
      const double av = a[k];
      const double* brow = bp + k * 8;
      for (int j = 0; j < 8; ++j) acc[j] = std::fma(av, brow[j], acc[j]);
    }
    for (int j = 0; j < 8; ++j) c[j] = acc[j];
    return;
  }
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (load_c)
    for (std::size_t j = 0; j < w; ++j) acc[j] = c[j];
  for (std::size_t k = 0; k < kc; ++k) {
    const double av = a[k];
    const double* brow = bp + k * 8;
    for (std::size_t j = 0; j < w; ++j) acc[j] = std::fma(av, brow[j], acc[j]);
  }
  for (std::size_t j = 0; j < w; ++j) c[j] = acc[j];
}

void scalar_rows1(const double* a, std::size_t, const double* bp, double* c,
                  std::size_t, std::size_t kc, std::size_t w, bool load_c) {
  scalar_rows1_body(a, bp, c, kc, w, load_c);
}

#if SCKL_X86
__attribute__((target("fma"))) void scalar_rows1_hwfma(
    const double* a, std::size_t, const double* bp, double* c, std::size_t,
    std::size_t kc, std::size_t w, bool load_c) {
  scalar_rows1_body(a, bp, c, kc, w, load_c);
}
#endif

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels: 4 rows x 8 columns, 8 ymm accumulators. Masked
// loads/stores keep column tails in-kernel without reading past row ends.

#if SCKL_X86

__attribute__((target("avx2,fma"))) void avx2_rows4(
    const double* a, std::size_t lda, const double* bp, double* c,
    std::size_t ldc, std::size_t kc, std::size_t w, bool load_c) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i m0 =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(w)), lane);
  const __m256i m1 = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(w) - 4), lane);
  __m256d acc[4][2];
  for (int r = 0; r < 4; ++r) {
    acc[r][0] = load_c ? _mm256_maskload_pd(c + r * ldc, m0)
                       : _mm256_setzero_pd();
    acc[r][1] = load_c ? _mm256_maskload_pd(c + r * ldc + 4, m1)
                       : _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < kc; ++k) {
    const double* brow = bp + k * 8;
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    for (int r = 0; r < 4; ++r) {
      const __m256d av = _mm256_set1_pd(a[r * lda + k]);
      acc[r][0] = _mm256_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < 4; ++r) {
    _mm256_maskstore_pd(c + r * ldc, m0, acc[r][0]);
    _mm256_maskstore_pd(c + r * ldc + 4, m1, acc[r][1]);
  }
}

__attribute__((target("avx2,fma"))) void avx2_rows1(
    const double* a, std::size_t, const double* bp, double* c, std::size_t,
    std::size_t kc, std::size_t w, bool load_c) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i m0 =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(w)), lane);
  const __m256i m1 = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(w) - 4), lane);
  __m256d a0 = load_c ? _mm256_maskload_pd(c, m0) : _mm256_setzero_pd();
  __m256d a1 = load_c ? _mm256_maskload_pd(c + 4, m1) : _mm256_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const double* brow = bp + k * 8;
    const __m256d av = _mm256_set1_pd(a[k]);
    a0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow), a0);
    a1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 4), a1);
  }
  _mm256_maskstore_pd(c, m0, a0);
  _mm256_maskstore_pd(c + 4, m1, a1);
}

// ---------------------------------------------------------------------------
// AVX-512F kernels: 4 rows x 32 columns, 16 zmm accumulators + 4 panel
// vectors; mask registers handle column tails.

__attribute__((always_inline)) inline __mmask8 avx512_mask(std::size_t w,
                                                           int v) {
  const long long rem = static_cast<long long>(w) - v * 8;
  if (rem >= 8) return static_cast<__mmask8>(0xFF);
  if (rem <= 0) return 0;
  return static_cast<__mmask8>((1u << rem) - 1u);
}

__attribute__((target("avx512f"))) void avx512_rows4(
    const double* a, std::size_t lda, const double* bp, double* c,
    std::size_t ldc, std::size_t kc, std::size_t w, bool load_c) {
  __mmask8 m[4];
  for (int v = 0; v < 4; ++v) m[v] = avx512_mask(w, v);
  __m512d acc[4][4];
  for (int r = 0; r < 4; ++r)
    for (int v = 0; v < 4; ++v)
      acc[r][v] = load_c ? _mm512_maskz_loadu_pd(m[v], c + r * ldc + v * 8)
                         : _mm512_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const double* brow = bp + k * 32;
    const __m512d b0 = _mm512_loadu_pd(brow);
    const __m512d b1 = _mm512_loadu_pd(brow + 8);
    const __m512d b2 = _mm512_loadu_pd(brow + 16);
    const __m512d b3 = _mm512_loadu_pd(brow + 24);
    for (int r = 0; r < 4; ++r) {
      const __m512d av = _mm512_set1_pd(a[r * lda + k]);
      acc[r][0] = _mm512_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(av, b1, acc[r][1]);
      acc[r][2] = _mm512_fmadd_pd(av, b2, acc[r][2]);
      acc[r][3] = _mm512_fmadd_pd(av, b3, acc[r][3]);
    }
  }
  for (int r = 0; r < 4; ++r)
    for (int v = 0; v < 4; ++v)
      _mm512_mask_storeu_pd(c + r * ldc + v * 8, m[v], acc[r][v]);
}

__attribute__((target("avx512f"))) void avx512_rows1(
    const double* a, std::size_t, const double* bp, double* c, std::size_t,
    std::size_t kc, std::size_t w, bool load_c) {
  __mmask8 m[4];
  for (int v = 0; v < 4; ++v) m[v] = avx512_mask(w, v);
  __m512d acc[4];
  for (int v = 0; v < 4; ++v)
    acc[v] = load_c ? _mm512_maskz_loadu_pd(m[v], c + v * 8)
                    : _mm512_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const double* brow = bp + k * 32;
    const __m512d av = _mm512_set1_pd(a[k]);
    acc[0] = _mm512_fmadd_pd(av, _mm512_loadu_pd(brow), acc[0]);
    acc[1] = _mm512_fmadd_pd(av, _mm512_loadu_pd(brow + 8), acc[1]);
    acc[2] = _mm512_fmadd_pd(av, _mm512_loadu_pd(brow + 16), acc[2]);
    acc[3] = _mm512_fmadd_pd(av, _mm512_loadu_pd(brow + 24), acc[3]);
  }
  for (int v = 0; v < 4; ++v)
    _mm512_mask_storeu_pd(c + v * 8, m[v], acc[v]);
}

#endif  // SCKL_X86

// ---------------------------------------------------------------------------
// Dispatch.

SimdTarget detect_target() {
#if SCKL_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return SimdTarget::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return SimdTarget::kAvx2;
#endif
  return SimdTarget::kScalar;
}

SimdTarget parse_simd_name(const std::string& name) {
  if (name == "scalar") return SimdTarget::kScalar;
  if (name == "avx2") return SimdTarget::kAvx2;
  if (name == "avx512") return SimdTarget::kAvx512;
  require(false, "SCKL_SIMD: unknown target '" + name +
                     "' (expected scalar, avx2, or avx512)");
  return SimdTarget::kScalar;
}

SimdTarget resolve_env_target() {
  const char* env = std::getenv("SCKL_SIMD");
  if (env == nullptr || *env == '\0') return detected_simd_target();
  const SimdTarget requested = parse_simd_name(env);
  return simd_target_supported(requested) ? requested : detected_simd_target();
}

// -1 = not forced; otherwise the int value of the forced SimdTarget.
std::atomic<int> g_forced_target{-1};

KernelSet kernel_set(SimdTarget target) {
#if SCKL_X86
  switch (target) {
    case SimdTarget::kAvx512:
      return {avx512_rows4, avx512_rows1, 32};
    case SimdTarget::kAvx2:
      return {avx2_rows4, avx2_rows1, 8};
    case SimdTarget::kScalar:
      break;
  }
  return {nullptr, hardware_fma() ? scalar_rows1_hwfma : scalar_rows1, 8};
#else
  (void)target;
  return {nullptr, scalar_rows1, 8};
#endif
}

// Packs B's (pc, jc) panel into kc x nr column strips, zero-padded to nr so
// kernels always read full vectors. Packing only copies, never computes, so
// it cannot affect bits.
void pack_b(const double* b, std::size_t ldb, std::size_t pc, std::size_t jc,
            std::size_t kc, std::size_t nc, std::size_t nr, double* out) {
  const std::size_t panels = (nc + nr - 1) / nr;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t j0 = p * nr;
    const std::size_t w = std::min(nr, nc - j0);
    double* dst = out + p * kc * nr;
    for (std::size_t k = 0; k < kc; ++k) {
      std::memcpy(dst, b + (pc + k) * ldb + jc + j0, w * sizeof(double));
      if (w < nr) std::memset(dst + w, 0, (nr - w) * sizeof(double));
      dst += nr;
    }
  }
}

// The same strips for the operand -B^T, with B stored n x k: packed element
// (k, j) is -B(jc + j, pc + k). Negation is exact, and fma(a, -b, c) equals
// fma(-a, b, c) bit for bit, so gemm_sub_abt keeps gemm_add's chains.
void pack_bt_negated(const double* b, std::size_t ldb, std::size_t pc,
                     std::size_t jc, std::size_t kc, std::size_t nc,
                     std::size_t nr, double* out) {
  const std::size_t panels = (nc + nr - 1) / nr;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t j0 = p * nr;
    const std::size_t w = std::min(nr, nc - j0);
    double* dst = out + p * kc * nr;
    for (std::size_t j = 0; j < nr; ++j) {
      if (j >= w) {
        for (std::size_t k = 0; k < kc; ++k) dst[k * nr + j] = 0.0;
        continue;
      }
      const double* src = b + (jc + j0 + j) * ldb + pc;
      for (std::size_t k = 0; k < kc; ++k) dst[k * nr + j] = -src[k];
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic dot product: 8 interleaved fma chains (lane l accumulates
// elements k = l mod 8), folded by a fixed pairwise tree. Tail element t
// (t >= n8) extends lane t - n8. Identical chains on every target.

__attribute__((always_inline)) inline double dot8_finish(double s[8],
                                                         const double* a,
                                                         const double* x,
                                                         std::size_t n8,
                                                         std::size_t n) {
  for (std::size_t t = n8; t < n; ++t)
    s[t - n8] = std::fma(a[t], x[t], s[t - n8]);
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

__attribute__((always_inline)) inline double dot8_scalar_body(
    const double* a, const double* x, std::size_t n) {
  double s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::size_t n8 = n - n % 8;
  for (std::size_t t = 0; t < n8; t += 8)
    for (int l = 0; l < 8; ++l) s[l] = std::fma(a[t + l], x[t + l], s[l]);
  return dot8_finish(s, a, x, n8, n);
}

double dot8_scalar(const double* a, const double* x, std::size_t n) {
  return dot8_scalar_body(a, x, n);
}

#if SCKL_X86

__attribute__((target("fma"))) double dot8_scalar_hwfma(const double* a,
                                                        const double* x,
                                                        std::size_t n) {
  return dot8_scalar_body(a, x, n);
}

__attribute__((target("avx2,fma"))) double dot8_avx2(const double* a,
                                                     const double* x,
                                                     std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::size_t n8 = n - n % 8;
  for (std::size_t t = 0; t < n8; t += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + t), _mm256_loadu_pd(x + t),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + t + 4),
                           _mm256_loadu_pd(x + t + 4), acc1);
  }
  double s[8];
  _mm256_storeu_pd(s, acc0);
  _mm256_storeu_pd(s + 4, acc1);
  return dot8_finish(s, a, x, n8, n);
}

__attribute__((target("avx512f"))) double dot8_avx512(const double* a,
                                                      const double* x,
                                                      std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  const std::size_t n8 = n - n % 8;
  for (std::size_t t = 0; t < n8; t += 8)
    acc = _mm512_fmadd_pd(_mm512_loadu_pd(a + t), _mm512_loadu_pd(x + t), acc);
  double s[8];
  _mm512_storeu_pd(s, acc);
  return dot8_finish(s, a, x, n8, n);
}

#endif  // SCKL_X86

using DotKernel = double (*)(const double*, const double*, std::size_t);

DotKernel dot_kernel(SimdTarget target) {
#if SCKL_X86
  switch (target) {
    case SimdTarget::kAvx512:
      return dot8_avx512;
    case SimdTarget::kAvx2:
      return dot8_avx2;
    case SimdTarget::kScalar:
      break;
  }
  return hardware_fma() ? dot8_scalar_hwfma : dot8_scalar;
#else
  (void)target;
  return dot8_scalar;
#endif
}

// A^T x accumulation body, instantiated at both fma targets like the scalar
// gemm kernel. k outer / j inner keeps A streaming row-major while every
// y[j] chain stays ascending in k — the same order gemm uses.
__attribute__((always_inline)) inline void gemv_t_body(const Matrix& a,
                                                       const Vector& x,
                                                       Vector& y) {
  const std::size_t n = a.cols();
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double xk = x[k];
    const double* row = a.row_ptr(k);
    for (std::size_t j = 0; j < n; ++j) y[j] = std::fma(xk, row[j], y[j]);
  }
}

void gemv_t_plain(const Matrix& a, const Vector& x, Vector& y) {
  gemv_t_body(a, x, y);
}

#if SCKL_X86
__attribute__((target("fma"))) void gemv_t_hwfma(const Matrix& a,
                                                 const Vector& x, Vector& y) {
  gemv_t_body(a, x, y);
}
#endif

}  // namespace

const char* simd_target_name(SimdTarget target) {
  switch (target) {
    case SimdTarget::kAvx512:
      return "avx512";
    case SimdTarget::kAvx2:
      return "avx2";
    case SimdTarget::kScalar:
      break;
  }
  return "scalar";
}

bool hardware_fma() {
#if SCKL_X86
  static const bool value = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") != 0;
  }();
  return value;
#else
  return false;
#endif
}

SimdTarget detected_simd_target() {
  static const SimdTarget target = detect_target();
  return target;
}

bool simd_target_supported(SimdTarget target) {
  return static_cast<int>(target) <= static_cast<int>(detected_simd_target());
}

SimdTarget active_simd_target() {
  const int forced = g_forced_target.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdTarget>(forced);
  static const SimdTarget resolved = resolve_env_target();
  return resolved;
}

void set_simd_target(SimdTarget target) {
  require(simd_target_supported(target),
          std::string("set_simd_target: ") + simd_target_name(target) +
              " is not supported on this CPU");
  g_forced_target.store(static_cast<int>(target), std::memory_order_relaxed);
}

void reset_simd_target() {
  g_forced_target.store(-1, std::memory_order_relaxed);
}

namespace {

// Shared driver over row-major views: C = (load_first ? C : 0) + A * B for
// the first k panel, accumulating thereafter. `pack(pc, jc, kc, nc, nr, out)`
// packs B's (pc, jc) panel. Skipping the first-panel load lets gemm_into
// avoid streaming a zero-filled C through memory twice — bit-identical to
// loading explicit zeros, since the accumulator chain starts at 0.0 either
// way.
template <typename PackB>
void gemm_driver(std::size_t m, std::size_t n, std::size_t kdim,
                 const double* a, std::size_t lda, const PackB& pack,
                 double* c, std::size_t ldc, bool load_first) {
  if (m == 0 || n == 0 || kdim == 0) return;

  const KernelSet ks = kernel_set(active_simd_target());

  thread_local std::vector<double> packed;
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    const std::size_t panels = (nc + ks.nr - 1) / ks.nr;
    for (std::size_t pc = 0; pc < kdim; pc += kKc) {
      const std::size_t kc = std::min(kKc, kdim - pc);
      const bool load_c = load_first || pc > 0;
      if (packed.size() < panels * kc * ks.nr)
        packed.resize(panels * kc * ks.nr);
      pack(pc, jc, kc, nc, ks.nr, packed.data());
      std::size_t i = 0;
      if (ks.rows4 != nullptr) {
        for (; i + 4 <= m; i += 4) {
          const double* arow = a + i * lda + pc;
          for (std::size_t p = 0; p < panels; ++p) {
            const std::size_t w = std::min(ks.nr, nc - p * ks.nr);
            ks.rows4(arow, lda, packed.data() + p * kc * ks.nr,
                     c + i * ldc + jc + p * ks.nr, ldc, kc, w, load_c);
          }
        }
      }
      for (; i < m; ++i) {
        const double* arow = a + i * lda + pc;
        for (std::size_t p = 0; p < panels; ++p) {
          const std::size_t w = std::min(ks.nr, nc - p * ks.nr);
          ks.rows1(arow, lda, packed.data() + p * kc * ks.nr,
                   c + i * ldc + jc + p * ks.nr, ldc, kc, w, load_c);
        }
      }
    }
  }
}

void gemm_matrices(const Matrix& a, const Matrix& b, Matrix& c,
                   bool load_first) {
  gemm_driver(
      a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
      [&](std::size_t pc, std::size_t jc, std::size_t kc, std::size_t nc,
          std::size_t nr, double* out) {
        pack_b(b.data(), b.cols(), pc, jc, kc, nc, nr, out);
      },
      c.data(), c.cols(), load_first);
}

}  // namespace

void gemm_add(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.cols() == b.rows(), "gemm_add: inner dimensions differ");
  require(c.rows() == a.rows() && c.cols() == b.cols(),
          "gemm_add: output shape mismatch");
  require(&c != &a && &c != &b, "gemm_add: output may not alias an input");
  gemm_matrices(a, b, c, /*load_first=*/true);
}

void gemm_into(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.cols() == b.rows(), "gemm_into: inner dimensions differ");
  require(&c != &a && &c != &b, "gemm_into: output may not alias an input");
  c.reshape(a.rows(), b.cols());
  if (a.cols() == 0) {
    c.fill(0.0);
    return;
  }
  gemm_matrices(a, b, c, /*load_first=*/false);
}

void gemm_sub_abt(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc) {
  gemm_driver(
      m, n, k, a, lda,
      [&](std::size_t pc, std::size_t jc, std::size_t kc, std::size_t nc,
          std::size_t nr, double* out) {
        pack_bt_negated(b, ldb, pc, jc, kc, nc, nr, out);
      },
      c, ldc, /*load_first=*/true);
}

Matrix gemm_fast(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm_into(a, b, c);
  return c;
}

Vector gemv_fast(const Matrix& a, const Vector& x) {
  Vector y(a.rows());
  gemv_rows(a, x, 0, a.rows(), y.data());
  return y;
}

void gemv_rows(const Matrix& a, const Vector& x, std::size_t begin,
               std::size_t end, double* y) {
  require(a.cols() == x.size(), "gemv_fast: dimension mismatch");
  require(begin <= end && end <= a.rows(), "gemv_rows: bad row range");
  const DotKernel dot = dot_kernel(active_simd_target());
  for (std::size_t i = begin; i < end; ++i)
    y[i] = dot(a.row_ptr(i), x.data(), a.cols());
}

Vector gemv_transposed_fast(const Matrix& a, const Vector& x) {
  require(a.rows() == x.size(), "gemv_transposed_fast: dimension mismatch");
  Vector y(a.cols(), 0.0);
#if SCKL_X86
  if (hardware_fma()) {
    gemv_t_hwfma(a, x, y);
    return y;
  }
#endif
  gemv_t_plain(a, x, y);
  return y;
}

}  // namespace sckl::linalg
