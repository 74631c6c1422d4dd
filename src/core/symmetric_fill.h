// Threaded fill of a symmetric kernel matrix by upper-triangle tiles.
//
// Both dense O(n^2) kernel matrices of the paper go through this one
// driver: the Galerkin matrix B of the KLE (core/galerkin.h) and Algorithm
// 1's gate-location Gram matrix K (field/cholesky_sampler.h).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "kernels/covariance_kernel.h"
#include "linalg/matrix.h"

namespace sckl::core {

/// Fills B(i, k) = B(k, i) = entry(i, k) for i <= k, n x n. Workers
/// (`num_threads`, 0 = auto: SCKL_THREADS env, else hardware concurrency)
/// claim 64 x 64 upper-triangle tiles through an atomic counter and write
/// each tile's mirror themselves; every entry is one call of `entry`, so
/// any thread count gives the same bits.
///
/// Errors are those of the serial row-major loop followed by a row-major
/// finiteness scan, whichever worker met them: the row-major-first thrown
/// exception propagates; otherwise a NaN/Inf entry throws sckl::Error
/// (kNonFinite) naming `who`, the entry and `kernel`.
template <typename Entry>
linalg::Matrix fill_symmetric(std::size_t n, const Entry& entry,
                              const kernels::CovarianceKernel& kernel,
                              const char* who, std::size_t num_threads) {
  constexpr std::size_t kTile = 64;
  constexpr std::size_t kNoEntry = std::numeric_limits<std::size_t>::max();
  // One worker's row-major-first failures, as linear indices i * n + k: the
  // first entry whose kernel call threw, and the first non-finite entry.
  struct FirstFailure {
    std::size_t thrown = kNoEntry;
    std::exception_ptr error;
    std::size_t non_finite = kNoEntry;
  };

  // Every entry is written below, by the worker that owns its tile.
  linalg::Matrix b = linalg::Matrix::uninitialized(n, n);
  const std::size_t num_tile_rows = (n + kTile - 1) / kTile;
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  for (std::size_t ti = 0; ti < num_tile_rows; ++ti)
    for (std::size_t tk = ti; tk < num_tile_rows; ++tk)
      tiles.emplace_back(ti, tk);

  const std::size_t threads = std::max<std::size_t>(
      1, std::min(ThreadPool::resolve_num_threads(num_threads), tiles.size()));
  std::vector<FirstFailure> failures(threads);
  std::atomic<std::size_t> next{0};
  ThreadPool(threads).run([&](std::size_t worker) {
    FirstFailure& first = failures[worker];
    for (std::size_t t; (t = next.fetch_add(1)) < tiles.size();) {
      const std::size_t i_end = std::min(n, (tiles[t].first + 1) * kTile);
      const std::size_t k_begin = tiles[t].second * kTile;
      const std::size_t k_end = std::min(n, k_begin + kTile);
      std::size_t i = tiles[t].first * kTile;
      std::size_t k = 0;
      try {
        for (; i < i_end; ++i) {
          for (k = std::max(i, k_begin); k < k_end; ++k) {
            const double value = entry(i, k);
            b(i, k) = value;
            b(k, i) = value;
            if (!std::isfinite(value))
              first.non_finite = std::min(first.non_finite, i * n + k);
          }
        }
      } catch (...) {
        // The rest of this tile follows (i, k) in row-major order.
        if (i * n + k < first.thrown) {
          first.thrown = i * n + k;
          first.error = std::current_exception();
        }
      }
    }
  });

  FirstFailure first;
  for (const FirstFailure& f : failures) {
    if (f.thrown < first.thrown) {
      first.thrown = f.thrown;
      first.error = f.error;
    }
    first.non_finite = std::min(first.non_finite, f.non_finite);
  }
  if (first.error) std::rethrow_exception(first.error);
  if (first.non_finite != kNoEntry)
    throw Error(std::string(who) + ": entry (" +
                    std::to_string(first.non_finite / n) + ", " +
                    std::to_string(first.non_finite % n) +
                    ") is not finite — kernel '" + kernel.name() +
                    "' produced NaN/Inf",
                ErrorCode::kNonFinite);
  return b;
}

}  // namespace sckl::core
