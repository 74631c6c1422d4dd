// Streaming statistics accumulators.
//
// RunningStats implements Welford's numerically stable online algorithm for
// mean/variance, extended with min/max. CovarianceAccumulator tracks the
// joint second moment of two streams. QuantileSketch is a fixed-size,
// deterministic, mergeable quantile summary (a simplified KLL compactor
// hierarchy) for full-distribution reporting — tail quantiles such as p99 /
// p99.9 timing yield — where retaining every sample would be unaffordable.
// All are used by the Monte Carlo SSTA harness (per-endpoint delay
// statistics, worst-delay distributions) and by the field-sampler
// validation tests (empirical vs. analytic covariance).
//
// Checkpointing contract: RunningStats and QuantileSketch expose bit-exact
// binary serialization (encode/decode over common/wire primitives) and
// state_equals(), so the Monte Carlo run ledger (ssta/mc_run.h) can persist
// per-lease partials and a resumed run can reproduce the exact accumulator
// state of an uninterrupted one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/wire.h"

namespace sckl {

/// Online mean/variance/min/max over a stream of doubles (Welford).
///
/// NaN guard: a NaN observation deliberately poisons the whole summary —
/// mean/variance turn NaN through the Welford update, and min/max are
/// propagated explicitly (a plain std::min/max would silently drop the NaN
/// and report clean extremes over corrupt data). merge() propagates the
/// poison the same way.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x);

  /// Number of observations added so far.
  std::size_t count() const { return count_; }

  /// Sample mean; 0 when empty.
  double mean() const { return mean_; }

  /// Unbiased sample variance (n-1 denominator); 0 when count < 2.
  double variance() const;

  /// Square root of variance().
  double stddev() const;

  /// Smallest observation; +inf when empty.
  double min() const { return min_; }

  /// Largest observation; -inf when empty.
  double max() const { return max_; }

  /// Merges another accumulator into this one (parallel Welford merge).
  void merge(const RunningStats& other);

  /// Appends the exact accumulator state (count, mean, M2, min, max) as
  /// little-endian wire primitives; doubles travel as IEEE-754 bit patterns,
  /// so decode() reproduces this object bit for bit.
  void encode(std::vector<std::uint8_t>& out) const;

  /// Inverse of encode(); throws with the reader's error code on truncation.
  static RunningStats decode(wire::ByteReader& r);

  /// Bitwise state comparison (count and the exact bit patterns of mean,
  /// M2, min, max) — the resume invariant of the Monte Carlo run ledger.
  bool state_equals(const RunningStats& other) const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_;
  double max_;

 public:
  RunningStats();
};

/// Fixed-size mergeable quantile summary (simplified KLL sketch).
///
/// A hierarchy of buffers ("levels"); an item at level i represents 2^i
/// observations. add() appends to level 0; a full level is compacted:
/// sorted, every second item promoted to the next level, the selection
/// parity alternating with a per-level compaction counter. The counter —
/// not a random coin — drives the parity, so the sketch is a pure
/// deterministic function of its operation sequence: the same adds and
/// merges in the same order always yield the identical state, which is what
/// lets a resumed Monte Carlo run reproduce an uninterrupted run's sketch
/// bit for bit (leases are folded in lease order; see ssta/mc_run.h).
///
/// Accuracy: while count() <= capacity() the sketch is exact (everything
/// still sits in level 0); beyond that, quantile() carries the usual KLL
/// rank error of O(levels / capacity). capacity 128 holds 10^6 samples in
/// ~13 levels at well under 2% rank error — ample for p99/p99.9 reporting.
/// Non-finite observations are rejected (kNonFinite): one NaN would corrupt
/// the sort ordering silently.
class QuantileSketch {
 public:
  static constexpr std::size_t kDefaultCapacity = 128;

  /// `capacity` is the per-level buffer size; >= 8 and identical across
  /// every sketch that will be merged together.
  explicit QuantileSketch(std::size_t capacity = kDefaultCapacity);

  /// Adds one observation; throws sckl::Error(kNonFinite) on NaN/Inf.
  void add(double x);

  /// Deterministically folds `other` into this sketch (capacities must
  /// match): per level, other's buffer is appended after ours, then full
  /// levels compact bottom-up.
  void merge(const QuantileSketch& other);

  /// Total observations represented (sum of item weights).
  std::uint64_t count() const { return count_; }

  std::size_t capacity() const { return capacity_; }

  /// Approximate q-quantile (exact while count() <= capacity()): the
  /// smallest retained value whose cumulative weight reaches q * count().
  /// q = 0 / q = 1 return the exact min / max. Throws on an empty sketch
  /// or q outside [0, 1].
  double quantile(double q) const;

  /// Exact extremes; +inf / -inf when empty (as RunningStats).
  double min() const { return min_; }
  double max() const { return max_; }

  /// Bitwise state comparison: capacity, count, extremes, every level's
  /// compaction counter and item bit patterns.
  bool state_equals(const QuantileSketch& other) const;

  /// Bit-exact binary serialization over common/wire primitives.
  void encode(std::vector<std::uint8_t>& out) const;

  /// Inverse of encode(); validates capacity and level shapes with the
  /// reader's error code.
  static QuantileSketch decode(wire::ByteReader& r);

 private:
  void compact(std::size_t level);

  std::size_t capacity_;
  std::uint64_t count_ = 0;
  double min_;
  double max_;
  std::vector<std::vector<double>> levels_;  // level i items weigh 2^i
  std::vector<std::uint64_t> compactions_;   // parity source per level
};

/// Online covariance between two paired streams.
class CovarianceAccumulator {
 public:
  /// Adds one paired observation (x, y).
  void add(double x, double y);

  std::size_t count() const { return count_; }

  /// Unbiased sample covariance (n-1 denominator); 0 when count < 2.
  double covariance() const;

  /// Pearson correlation coefficient; 0 when either variance is 0.
  double correlation() const;

 private:
  std::size_t count_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double m2_x_ = 0.0;
  double m2_y_ = 0.0;
  double cxy_ = 0.0;
};

/// Returns the q-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between order statistics. The input is copied and partially sorted.
/// Throws sckl::Error (code kNonFinite) when any input is NaN/Inf.
double quantile(std::vector<double> values, double q);

/// Mean of a vector; throws on empty input or non-finite values
/// (kNonFinite, naming the offending index).
double mean_of(const std::vector<double>& values);

/// Unbiased standard deviation of a vector; throws when size < 2 or any
/// value is non-finite.
double stddev_of(const std::vector<double>& values);

}  // namespace sckl
