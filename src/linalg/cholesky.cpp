#include "linalg/cholesky.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"

namespace sckl::linalg {
namespace {

// Columns per panel. The chains that finish a panel are bound by fma
// latency, so panels stay narrow; everything left of a panel reaches it
// through the gemm kernels.
constexpr std::size_t kPanel = 64;
// Fewest rows a worker claims when it updates a panel. A claim is otherwise
// a worker's even share of the rows below the panel, so that the operand
// each claim packs for the gemm kernels is packed about once per worker.
constexpr std::size_t kMinRows = 64;
// Tile edge of the restore's strided triangle copy.
constexpr std::size_t kCopyTile = 32;

// Factors the w x w diagonal block `s` (row stride w) in place, lower
// triangle only. On entry s(i, j) holds K(i, j) [+ jitter] with the chain
// over the columns left of the block already applied; column j continues
// it over the block's own columns k < j, then takes a sqrt (i = j) or a
// multiply by inv[j] = 1 / L(j, j). `offset` is the block's first column,
// for the failing pivot's index.
__attribute__((always_inline)) inline bool factor_block_body(
    double* s, std::size_t w, std::size_t offset, double* inv,
    CholeskyFailure* failure) {
  for (std::size_t j = 0; j < w; ++j) {
    const double* lj = s + j * w;
    double c = lj[j];
    for (std::size_t k = 0; k < j; ++k) c = std::fma(-lj[k], lj[k], c);
    if (!(c > 0.0)) {  // also rejects NaN
      if (failure != nullptr) *failure = {offset + j, c};
      return false;
    }
    const double ljj = std::sqrt(c);
    s[j * w + j] = ljj;
    inv[j] = 1.0 / ljj;
    for (std::size_t i = j + 1; i < w; ++i) {
      double* li = s + i * w;
      double x = li[j];
      for (std::size_t k = 0; k < j; ++k) x = std::fma(-li[k], lj[k], x);
      li[j] = x * inv[j];
    }
  }
  return true;
}

// Finishes `count` rows below a diagonal block: row r's w entries start at
// rows + r * ld and hold the chain over the columns left of the panel;
// entry j continues it with the finished entries k < j of the same row
// against the block's L(j, k), then multiplies by inv[j]. R rows advance
// together so that R independent chains hide the fma latency.
template <std::size_t R>
__attribute__((always_inline)) inline void finish_rows_body(
    double* rows, std::size_t ld, std::size_t w, const double* block,
    const double* inv) {
  for (std::size_t j = 0; j < w; ++j) {
    const double* lj = block + j * w;
    double c[R];
    for (std::size_t q = 0; q < R; ++q) c[q] = rows[q * ld + j];
    for (std::size_t k = 0; k < j; ++k)
      for (std::size_t q = 0; q < R; ++q)
        c[q] = std::fma(-rows[q * ld + k], lj[k], c[q]);
    for (std::size_t q = 0; q < R; ++q) rows[q * ld + j] = c[q] * inv[j];
  }
}

__attribute__((always_inline)) inline void finish_panel_body(
    double* rows, std::size_t ld, std::size_t count, std::size_t w,
    const double* block, const double* inv) {
  std::size_t r = 0;
  for (; r + 8 <= count; r += 8)
    finish_rows_body<8>(rows + r * ld, ld, w, block, inv);
  for (; r < count; ++r) finish_rows_body<1>(rows + r * ld, ld, w, block, inv);
}

// Each body is instantiated at the default target (std::fma is the libm
// call) and under target("fma") (hardware vfmadd): the same bits.
bool factor_block_plain(double* s, std::size_t w, std::size_t offset,
                        double* inv, CholeskyFailure* failure) {
  return factor_block_body(s, w, offset, inv, failure);
}

void finish_panel_plain(double* rows, std::size_t ld, std::size_t count,
                        std::size_t w, const double* block,
                        const double* inv) {
  finish_panel_body(rows, ld, count, w, block, inv);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("fma"))) bool factor_block_hwfma(
    double* s, std::size_t w, std::size_t offset, double* inv,
    CholeskyFailure* failure) {
  return factor_block_body(s, w, offset, inv, failure);
}

__attribute__((target("fma"))) void finish_panel_hwfma(
    double* rows, std::size_t ld, std::size_t count, std::size_t w,
    const double* block, const double* inv) {
  finish_panel_body(rows, ld, count, w, block, inv);
}
#else
constexpr auto factor_block_hwfma = factor_block_plain;
constexpr auto finish_panel_hwfma = finish_panel_plain;
#endif

// Lower Cholesky of `a` in place, left-looking by panels of kPanel columns.
// It never writes the strict upper triangle, and no result depends on it.
// A panel's diagonal block is updated by all earlier columns through
// gemm_sub_abt in a w x w scratch (so the upper triangle stays untouched)
// and factored there; the rows below are split over a pool on auto
// threads, each claim updated through gemm_sub_abt in place and finished
// against the block. Every L(i, j) is thereby one fma chain over k
// ascending, whatever the thread count or panel width. Returns false on a
// non-positive pivot; the first `*written` columns may then have been
// overwritten.
bool factor_in_place(Matrix& a, CholeskyFailure* failure,
                     std::size_t* written) {
  const std::size_t n = a.rows();
  double* data = a.data();
  const bool hw = hardware_fma();
  const std::size_t threads = std::max<std::size_t>(
      1, std::min(ThreadPool::resolve_num_threads(0),
                  n > kPanel ? (n - kPanel + kMinRows - 1) / kMinRows : 0));
  ThreadPool pool(threads);
  std::vector<double> block(kPanel * kPanel);
  std::vector<double> inv(kPanel);
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t w = std::min(kPanel, n - j0);
    *written = j0 + w;
    for (std::size_t r = 0; r < w; ++r)
      std::memcpy(block.data() + r * w, data + (j0 + r) * n + j0,
                  w * sizeof(double));
    gemm_sub_abt(w, w, j0, data + j0 * n, n, data + j0 * n, n, block.data(),
                 w);
    if (!(hw ? factor_block_hwfma : factor_block_plain)(block.data(), w, j0,
                                                         inv.data(), failure))
      return false;
    for (std::size_t r = 0; r < w; ++r)
      std::memcpy(data + (j0 + r) * n + j0, block.data() + r * w,
                  (r + 1) * sizeof(double));
    if (j0 + w == n) break;
    const std::size_t share = (n - j0 - w + threads - 1) / threads;
    const std::size_t claim = std::max(kMinRows, (share + 7) / 8 * 8);
    std::atomic<std::size_t> next{j0 + w};
    pool.run([&](std::size_t) {
      for (std::size_t i0; (i0 = next.fetch_add(claim)) < n;) {
        const std::size_t rows = std::min(claim, n - i0);
        gemm_sub_abt(rows, w, j0, data + i0 * n, n, data + j0 * n, n,
                     data + i0 * n + j0, n);
        (hw ? finish_panel_hwfma : finish_panel_plain)(
            data + i0 * n + j0, n, rows, w, block.data(), inv.data());
      }
    });
  }
  return true;
}

// Rewrites the strict lower triangle of the first `columns` columns from the
// strict upper triangle, which the factor never writes.
void restore_lower(Matrix& a, std::size_t columns) {
  const std::size_t n = a.rows();
  for (std::size_t j0 = 0; j0 < columns; j0 += kCopyTile)
    for (std::size_t i0 = j0; i0 < n; i0 += kCopyTile)
      for (std::size_t i = i0; i < std::min(n, i0 + kCopyTile); ++i)
        for (std::size_t j = j0; j < std::min({i, columns, j0 + kCopyTile});
             ++j)
          a(i, j) = a(j, i);
}

void zero_strict_upper(Matrix& a) {
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i + 1 < n; ++i)
    std::fill(a.row_ptr(i) + i + 1, a.row_ptr(i) + n, 0.0);
}

std::string pivot_message(const CholeskyFailure& failure) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "(pivot %zu = %.6g after elimination)",
                failure.pivot_index, failure.pivot_value);
  return buffer;
}

}  // namespace

Vector CholeskyFactor::solve(const Vector& b) const {
  const std::size_t n = lower.rows();
  require(b.size() == n, "CholeskyFactor::solve: size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    const double* row = lower.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) sum -= row[k] * y[k];
    y[i] = sum / row[i];
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= lower(k, ii) * x[k];
    x[ii] = sum / lower(ii, ii);
  }
  return x;
}

double CholeskyFactor::log_determinant() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < lower.rows(); ++i)
    sum += std::log(lower(i, i));
  return 2.0 * sum;
}

CholeskyFactor cholesky(const Matrix& k) {
  CholeskyFailure failure;
  auto result = try_cholesky(k, &failure);
  if (!result.has_value())
    throw Error("cholesky: matrix is not positive definite " +
                    pivot_message(failure),
                ErrorCode::kNotPositiveDefinite);
  return std::move(*result);
}

std::optional<CholeskyFactor> try_cholesky(const Matrix& k,
                                           CholeskyFailure* failure) {
  require(k.rows() == k.cols(), "cholesky: matrix must be square");
  if (robust::fault_injected(robust::FaultSite::kCholeskyPivot)) {
    if (failure != nullptr) *failure = {0, std::nan("")};
    return std::nullopt;
  }
  obs::Span span("linalg.cholesky");
  obs::counter("sckl.linalg.cholesky.factorizations").add(1);
  Matrix a = k;
  std::size_t written = 0;
  if (!factor_in_place(a, failure, &written)) return std::nullopt;
  zero_strict_upper(a);
  return CholeskyFactor{std::move(a)};
}

JitteredCholesky cholesky_with_jitter(Matrix k, double initial_jitter,
                                      int max_attempts) {
  require(k.rows() == k.cols(), "cholesky_with_jitter: matrix must be square");
  const std::size_t n = k.rows();
  obs::Span span("linalg.cholesky");
  Vector diagonal(n);
  for (std::size_t i = 0; i < n; ++i) diagonal[i] = k(i, i);
  std::size_t written = 0;  // leading columns the last attempt overwrote
  double jitter = 0.0;
  double next = initial_jitter;
  CholeskyFailure failure;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) obs::counter("sckl.linalg.cholesky.jitter_retries").add(1);
    if (robust::fault_injected(robust::FaultSite::kCholeskyPivot)) {
      failure = {0, std::nan("")};
    } else {
      obs::counter("sckl.linalg.cholesky.factorizations").add(1);
      restore_lower(k, written);
      for (std::size_t i = 0; i < n; ++i) k(i, i) = diagonal[i] + jitter;
      if (factor_in_place(k, &failure, &written)) {
        zero_strict_upper(k);
        return JitteredCholesky{CholeskyFactor{std::move(k)}, jitter};
      }
    }
    jitter = next;
    next *= 10.0;
  }
  throw Error("cholesky_with_jitter: failed even with maximal jitter " +
                  pivot_message(failure),
              ErrorCode::kNotPositiveDefinite);
}

}  // namespace sckl::linalg
