// Tests for src/common: error handling, RNG quality/determinism, streaming
// statistics, table formatting, CLI parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace sckl {
namespace {

TEST(Error, RequireThrowsWithMessage) {
  try {
    require(false, "the condition");
    FAIL() << "require did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the condition"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
  }
}

TEST(Error, EnsureThrowsWithInvariantKind) {
  try {
    ensure(false, "broken");
    FAIL() << "ensure did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

TEST(Error, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_NO_THROW(ensure(true, "ok"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_GT(c, draws / 10 - 600);
    EXPECT_LT(c, draws / 10 + 600);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(10);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, NormalMomentsMatchStandardNormal) {
  Rng rng(11);
  RunningStats stats;
  double sum_cubed = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    stats.add(x);
    sum_cubed += x * x * x;
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0, 0.02);
  EXPECT_NEAR(sum_cubed / n, 0.0, 0.03);  // skewness ~ 0
}

TEST(Rng, NormalWithParametersScales) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(13);
  Rng child = parent.split();
  CovarianceAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(parent.normal(), child.normal());
  EXPECT_LT(std::abs(acc.correlation()), 0.02);
}

TEST(Rng, NormalVectorHasRequestedLength) {
  Rng rng(14);
  EXPECT_EQ(rng.normal_vector(17).size(), 17u);
}

TEST(CounterRng, PureFunctionOfKeyIndexAndLane) {
  const CounterRng a(StreamKey{42, 3});
  const CounterRng b(StreamKey{42, 3});
  for (std::uint64_t i = 0; i < 64; ++i)
    for (std::uint64_t lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(a.bits(i, lane), b.bits(i, lane));
      EXPECT_EQ(a.normal(i, lane), b.normal(i, lane));
    }
}

TEST(CounterRng, DistinctKeysIndicesAndLanesDecorrelate) {
  const CounterRng base(StreamKey{1, 0});
  const CounterRng other_seed(StreamKey{2, 0});
  const CounterRng other_param(StreamKey{1, 1});
  int seed_same = 0;
  int param_same = 0;
  int lane_same = 0;
  int index_same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seed_same += base.bits(i, 0) == other_seed.bits(i, 0);
    param_same += base.bits(i, 0) == other_param.bits(i, 0);
    lane_same += base.bits(i, 0) == base.bits(i, 1);
    index_same += base.bits(i, 0) == base.bits(i + 1, 0);
  }
  EXPECT_EQ(seed_same, 0);
  EXPECT_EQ(param_same, 0);
  EXPECT_EQ(lane_same, 0);
  EXPECT_EQ(index_same, 0);
}

TEST(CounterRng, UniformStrictlyInsideUnitInterval) {
  const CounterRng rng(StreamKey{7, 0});
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const double u = rng.uniform(i, 0);
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, NormalMomentsMatchStandardNormal) {
  const CounterRng rng(StreamKey{11, 2});
  RunningStats stats;
  double sum_cubed = 0.0;
  const std::uint64_t n = 200000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double x = rng.normal(i, 0);
    stats.add(x);
    sum_cubed += x * x * x;
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0, 0.02);
  EXPECT_NEAR(sum_cubed / static_cast<double>(n), 0.0, 0.03);
}

TEST(CounterRng, NormalRowIsBitIdenticalToScalarNormal) {
  // The batched hot path (field::fill_latent_normals rides normal_row) is
  // only allowed to hoist the per-index digest round — the bits of every
  // draw must match the scalar normal() calls exactly, including with a
  // nonzero lane offset and across row lengths that cross any internal
  // unrolling boundary.
  const CounterRng rng(StreamKey{314, 7});
  for (const std::size_t count : {1u, 7u, 8u, 25u, 64u, 193u}) {
    for (const std::uint64_t first_lane : {0u, 3u}) {
      std::vector<double> row(count);
      rng.normal_row(5, first_lane, count, row.data());
      for (std::size_t c = 0; c < count; ++c)
        ASSERT_EQ(row[c], rng.normal(5, first_lane + c))
            << "count=" << count << " first_lane=" << first_lane
            << " c=" << c;
    }
  }
}

TEST(StandardNormalQuantile, RoundTripsAndRejectsEndpoints) {
  // Acklam's approximation is accurate to ~1.2e-9 relative; the erfc-based
  // CDF closes the loop.
  const auto normal_cdf = [](double z) {
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
  };
  for (double p : {1e-9, 1e-4, 0.02425, 0.3, 0.5, 0.8, 0.97575, 0.9999}) {
    EXPECT_NEAR(normal_cdf(standard_normal_quantile(p)), p,
                1e-8 + 1e-7 * p)
        << "p=" << p;
  }
  EXPECT_THROW(standard_normal_quantile(0.0), Error);
  EXPECT_THROW(standard_normal_quantile(1.0), Error);
  EXPECT_THROW(standard_normal_quantile(-0.5), Error);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> data = {1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  RunningStats stats;
  for (double x : data) stats.add(x);
  double mean = 0.0;
  for (double x : data) mean += x;
  mean /= static_cast<double>(data.size());
  double var = 0.0;
  for (double x : data) var += (x - mean) * (x - mean);
  var /= static_cast<double>(data.size() - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.5);
  EXPECT_EQ(stats.count(), data.size());
}

TEST(RunningStats, EmptyAndSingleValueEdgeCases) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.add(3.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(RunningStats, MergeEqualsSinglePass) {
  Rng rng(15);
  RunningStats whole;
  RunningStats part1;
  RunningStats part2;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    whole.add(x);
    (i % 2 == 0 ? part1 : part2).add(x);
  }
  part1.merge(part2);
  EXPECT_NEAR(part1.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(part1.variance(), whole.variance(), 1e-10);
  EXPECT_EQ(part1.count(), whole.count());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_NEAR(b.mean(), 1.5, 1e-12);
}

TEST(RunningStats, MergeIsAssociativeUpToRounding) {
  // Property: for random partitions into three chunks, (a+b)+c and a+(b+c)
  // agree on count/min/max exactly and on mean/variance to tight tolerance.
  // (The parallel MC engine relies on a fixed merge order for bit-equality;
  // this pins down that any order is still statistically equivalent.)
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    Rng rng(900 + trial);
    RunningStats chunk[3];
    for (int i = 0; i < 600; ++i)
      chunk[rng.uniform_index(3)].add(rng.normal(10.0, 3.0));

    RunningStats left_first = chunk[0];
    left_first.merge(chunk[1]);
    left_first.merge(chunk[2]);
    RunningStats right_first = chunk[1];
    right_first.merge(chunk[2]);
    RunningStats a = chunk[0];
    a.merge(right_first);

    EXPECT_EQ(left_first.count(), a.count());
    EXPECT_EQ(left_first.min(), a.min());
    EXPECT_EQ(left_first.max(), a.max());
    EXPECT_NEAR(left_first.mean(), a.mean(), 1e-12);
    EXPECT_NEAR(left_first.variance(), a.variance(), 1e-10);
  }
}

TEST(RunningStats, MergeOfEmptyPartialsIsStillEmpty) {
  // A resumed MC run may fold leases whose geometry produced zero samples
  // locally; empty-into-empty must stay a clean zero state, not NaN.
  RunningStats a;
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_TRUE(std::isinf(a.min()));
  EXPECT_TRUE(std::isinf(a.max()));
}

TEST(RunningStats, FoldOfSingleSampleBlocksMatchesDirectStats) {
  // Degenerate block size 1: every partial carries one observation and zero
  // M2. The fixed-order fold must still reproduce the direct accumulation's
  // count/min/max exactly and moments to rounding.
  Rng rng(41);
  std::vector<double> data;
  RunningStats direct;
  for (int i = 0; i < 257; ++i) {
    data.push_back(rng.normal(3.0, 2.0));
    direct.add(data.back());
  }
  RunningStats folded;
  for (double x : data) {
    RunningStats block;
    block.add(x);
    folded.merge(block);
  }
  EXPECT_EQ(folded.count(), direct.count());
  EXPECT_EQ(folded.min(), direct.min());
  EXPECT_EQ(folded.max(), direct.max());
  EXPECT_NEAR(folded.mean(), direct.mean(), 1e-12);
  EXPECT_NEAR(folded.variance(), direct.variance(), 1e-10);
}

TEST(RunningStats, NanPoisonPropagatesThroughMinMaxAndMerge) {
  RunningStats poisoned;
  poisoned.add(1.0);
  poisoned.add(std::nan(""));
  EXPECT_TRUE(std::isnan(poisoned.mean()));
  EXPECT_TRUE(std::isnan(poisoned.min()));
  EXPECT_TRUE(std::isnan(poisoned.max()));

  // Merge in either direction keeps the poison: corrupt data must never be
  // laundered into clean-looking extremes by a merge.
  RunningStats clean;
  clean.add(2.0);
  clean.add(5.0);
  RunningStats into_clean = clean;
  into_clean.merge(poisoned);
  EXPECT_TRUE(std::isnan(into_clean.mean()));
  EXPECT_TRUE(std::isnan(into_clean.min()));
  EXPECT_TRUE(std::isnan(into_clean.max()));
  RunningStats into_poisoned = poisoned;
  into_poisoned.merge(clean);
  EXPECT_TRUE(std::isnan(into_poisoned.mean()));
  EXPECT_TRUE(std::isnan(into_poisoned.min()));
  EXPECT_TRUE(std::isnan(into_poisoned.max()));
}

TEST(RunningStats, FixedOrderFoldIsBitIdenticalUnderPermutedCompletion) {
  // The MC resume invariant in one picture: blocks may *finish* in any
  // order (threads, crashes, resumes), but as long as the fold runs in
  // block order the accumulator state is bit-identical.
  Rng rng(43);
  std::vector<RunningStats> blocks(8);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (int i = 0; i < 37; ++i) blocks[b].add(rng.normal(7.0, 1.5));

  const auto fold_in_order = [&blocks](const std::vector<std::size_t>&) {
    // Completion order is irrelevant by construction: the fold below reads
    // blocks[0..n) regardless of which order they were produced in.
    RunningStats acc;
    for (const RunningStats& block : blocks) acc.merge(block);
    return acc;
  };
  const RunningStats a = fold_in_order({0, 1, 2, 3, 4, 5, 6, 7});
  const RunningStats b = fold_in_order({5, 2, 7, 0, 6, 1, 4, 3});
  EXPECT_TRUE(a.state_equals(b));

  // And a genuinely different fold nesting is NOT bit-identical in general
  // (Welford merge is not associative at the bit level) — which is exactly
  // why the checkpointed runner pins the nesting as part of its contract.
  EXPECT_EQ(a.count(), 8u * 37u);
}

TEST(RunningStats, EncodeDecodeRoundTripsBitExactly) {
  Rng rng(44);
  RunningStats original;
  for (int i = 0; i < 100; ++i) original.add(rng.normal(-2.0, 9.0));
  std::vector<std::uint8_t> bytes;
  original.encode(bytes);
  wire::ByteReader r(bytes.data(), bytes.size(), ErrorCode::kCorruptArtifact,
                     "test");
  const RunningStats copy = RunningStats::decode(r);
  EXPECT_TRUE(copy.state_equals(original));

  // Empty and NaN-poisoned states round-trip too (NaN payload bits travel
  // verbatim, so state_equals — a bit comparison — still holds).
  for (const bool poison : {false, true}) {
    RunningStats s;
    if (poison) s.add(std::nan(""));
    std::vector<std::uint8_t> b2;
    s.encode(b2);
    wire::ByteReader r2(b2.data(), b2.size(), ErrorCode::kCorruptArtifact,
                        "test");
    EXPECT_TRUE(RunningStats::decode(r2).state_equals(s));
  }
}

// --- QuantileSketch --------------------------------------------------------

TEST(QuantileSketch, ExactWhileWithinCapacity) {
  // Below capacity everything sits in level 0: quantile() must return exact
  // order statistics under its "smallest value reaching rank q*n" rule.
  QuantileSketch sketch(64);
  std::vector<double> values;
  Rng rng(50);
  for (int i = 0; i < 60; ++i) {
    values.push_back(rng.normal());
    sketch.add(values.back());
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(sketch.count(), values.size());
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), values.front());
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), values.back());
  for (const double q : {0.1, 0.25, 0.5, 0.9, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    EXPECT_DOUBLE_EQ(sketch.quantile(q), values[rank - 1]) << "q=" << q;
  }
}

TEST(QuantileSketch, TailQuantilesStayAccurateBeyondCapacity) {
  // 50k uniform samples through a capacity-128 sketch: rank error at p99 /
  // p99.9 must stay within a couple of percent of rank (for U(0,1) the
  // value IS the rank fraction, which makes the error directly readable).
  QuantileSketch sketch(128);
  Rng rng(51);
  RunningStats check;
  for (int i = 0; i < 50000; ++i) {
    const double u = rng.uniform();
    sketch.add(u);
    check.add(u);
  }
  EXPECT_EQ(sketch.count(), 50000u);
  EXPECT_DOUBLE_EQ(sketch.min(), check.min());  // extremes are exact
  EXPECT_DOUBLE_EQ(sketch.max(), check.max());
  EXPECT_NEAR(sketch.quantile(0.5), 0.5, 0.03);
  EXPECT_NEAR(sketch.quantile(0.99), 0.99, 0.03);
  EXPECT_NEAR(sketch.quantile(0.999), 0.999, 0.03);
}

TEST(QuantileSketch, IdenticalOperationSequencesAreBitIdentical) {
  // The deterministic-compaction property the MC resume contract rests on:
  // same adds in the same order -> identical state, including compaction
  // counters, far past capacity.
  QuantileSketch a(32);
  QuantileSketch b(32);
  Rng rng_a(52);
  Rng rng_b(52);
  for (int i = 0; i < 5000; ++i) {
    a.add(rng_a.normal());
    b.add(rng_b.normal());
  }
  EXPECT_TRUE(a.state_equals(b));
  EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
}

TEST(QuantileSketch, MergeIsDeterministicAndWeightPreserving) {
  // Split one stream into blocks, fold the block sketches in block order:
  // two independent executions of that plan agree bit for bit, and the
  // merged count is the sum of the parts.
  const auto build = [] {
    QuantileSketch folded(32);
    Rng rng(53);
    for (int block = 0; block < 6; ++block) {
      QuantileSketch part(32);
      for (int i = 0; i < 777; ++i) part.add(rng.normal(5.0, 2.0));
      folded.merge(part);
    }
    return folded;
  };
  const QuantileSketch x = build();
  const QuantileSketch y = build();
  EXPECT_TRUE(x.state_equals(y));
  EXPECT_EQ(x.count(), 6u * 777u);

  QuantileSketch other_capacity(64);
  other_capacity.add(1.0);
  QuantileSketch target(32);
  EXPECT_THROW(target.merge(other_capacity), Error);
}

TEST(QuantileSketch, RejectsNonFiniteAndBadQueries) {
  QuantileSketch sketch(16);
  EXPECT_THROW(sketch.add(std::nan("")), Error);
  EXPECT_THROW(sketch.add(std::numeric_limits<double>::infinity()), Error);
  EXPECT_THROW(sketch.quantile(0.5), Error);  // empty
  sketch.add(1.0);
  EXPECT_THROW(sketch.quantile(-0.1), Error);
  EXPECT_THROW(sketch.quantile(1.1), Error);
  EXPECT_THROW(QuantileSketch(4), Error);  // capacity floor is 8
}

TEST(QuantileSketch, EncodeDecodeRoundTripsBitExactly) {
  QuantileSketch original(16);
  Rng rng(54);
  for (int i = 0; i < 3000; ++i) original.add(rng.normal());
  std::vector<std::uint8_t> bytes;
  original.encode(bytes);
  wire::ByteReader r(bytes.data(), bytes.size(), ErrorCode::kCorruptArtifact,
                     "test");
  const QuantileSketch copy = QuantileSketch::decode(r);
  EXPECT_TRUE(copy.state_equals(original));
  EXPECT_EQ(copy.quantile(0.999), original.quantile(0.999));

  // Truncated input surfaces the reader's error code, not garbage.
  wire::ByteReader torn(bytes.data(), bytes.size() / 2,
                        ErrorCode::kCorruptArtifact, "test");
  EXPECT_THROW(QuantileSketch::decode(torn), Error);
}

TEST(Covariance, RecoverKnownLinearRelation) {
  Rng rng(16);
  CovarianceAccumulator acc;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.normal();
    acc.add(x, 2.0 * x + rng.normal());  // cov = 2, corr = 2/sqrt(5)
  }
  EXPECT_NEAR(acc.covariance(), 2.0, 0.05);
  EXPECT_NEAR(acc.correlation(), 2.0 / std::sqrt(5.0), 0.01);
}

TEST(Covariance, DegenerateInputsGiveZero) {
  CovarianceAccumulator acc;
  acc.add(1.0, 1.0);
  EXPECT_EQ(acc.covariance(), 0.0);
  EXPECT_EQ(acc.correlation(), 0.0);
  acc.add(1.0, 2.0);  // x variance is 0
  EXPECT_EQ(acc.correlation(), 0.0);
}

TEST(Quantile, InterpolatesOrderStatistics) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 2.5);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), Error);
  EXPECT_THROW(quantile({1.0}, -0.1), Error);
  EXPECT_THROW(quantile({1.0}, 1.1), Error);
}

TEST(VectorStats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0}), 3.0);
  EXPECT_NEAR(stddev_of({2.0, 4.0}), std::sqrt(2.0), 1e-12);
  EXPECT_THROW(mean_of({}), Error);
  EXPECT_THROW(stddev_of({1.0}), Error);
}

TEST(TextTable, AlignsColumnsAndFormatsCsv) {
  TextTable table;
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_numeric_row({2.5, 3.25}, 2);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("3.25"), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("2.50,3.25"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_NE(format_scientific(12345.0, 2).find("e"), std::string::npos);
}

TEST(CliFlags, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=3",  "--beta=2.5",
                        "--flag",     "positional", "--name=abc",
                        "--enabled=false"};
  CliFlags flags(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get_size("alpha", 0), 3u);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 2.5);
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_FALSE(flags.get_bool("enabled", true));
  EXPECT_EQ(flags.get_string("name", ""), "abc");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_FALSE(flags.has("missing"));
}

TEST(CliFlags, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--x=abc", "--count=-1"};
  CliFlags flags(3, argv);
  EXPECT_THROW(flags.get_int("x", 0), Error);
  EXPECT_THROW(flags.get_double("x", 0.0), Error);
  EXPECT_THROW(flags.get_bool("x", false), Error);
  EXPECT_THROW(flags.get_size("x", 0), Error);
  // A negative count must not wrap to about 2^64.
  EXPECT_THROW(flags.get_size("count", 0), Error);
}

TEST(ExperimentFlagSet, AppliesOnlyPresentFlags) {
  const char* argv[] = {"prog", "--circuit=c1355", "--threads=4", "--strict"};
  CliFlags flags(static_cast<int>(std::size(argv)), argv);
  ExperimentFlagSet defaults;
  defaults.num_samples = 250;  // binary-specific default
  const ExperimentFlagSet set = parse_experiment_flags(flags, defaults);
  EXPECT_EQ(set.circuit, "c1355");
  EXPECT_EQ(set.num_threads, 4u);
  EXPECT_TRUE(set.strict);
  EXPECT_FALSE(set.validate);
  EXPECT_EQ(set.num_samples, 250u);  // untouched: no --samples flag
  EXPECT_EQ(set.seed, 1u);
}

TEST(ExperimentFlagSet, RejectsNegativeCounts) {
  const char* argv[] = {"prog", "--threads=-2"};
  CliFlags flags(2, argv);
  EXPECT_THROW(parse_experiment_flags(flags), Error);
}

TEST(ExperimentFlagSet, BlockSamplesParsesAndValidates) {
  {
    const char* argv[] = {"prog", "--block-samples=512"};
    CliFlags flags(2, argv);
    const ExperimentFlagSet set = parse_experiment_flags(flags);
    EXPECT_EQ(set.block_samples, 512u);
  }
  {
    // Absent flag keeps the 0 = subsystem-default sentinel.
    const char* argv[] = {"prog"};
    CliFlags flags(1, argv);
    EXPECT_EQ(parse_experiment_flags(flags).block_samples, 0u);
  }
  {
    const char* argv[] = {"prog", "--block-samples=-1"};
    CliFlags flags(2, argv);
    EXPECT_THROW(parse_experiment_flags(flags), Error);
  }
  {
    // One past the serve-layer ceiling the flag is validated against.
    const std::string flag =
        "--block-samples=" +
        std::to_string(ExperimentFlagSet::kMaxBlockSamples + 1);
    const char* argv[] = {"prog", flag.c_str()};
    CliFlags flags(2, argv);
    EXPECT_THROW(parse_experiment_flags(flags), Error);
  }
}

TEST(ThreadPool, ExplicitRequestIsVerbatim) {
  EXPECT_EQ(ThreadPool::resolve_num_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_num_threads(6), 6u);
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1u);  // auto >= 1
}

TEST(ThreadPool, AutoModeHonorsEnvOverride) {
  const char* saved = std::getenv("SCKL_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("SCKL_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::resolve_num_threads(0), 3u);
  EXPECT_EQ(ThreadPool::resolve_num_threads(2), 2u);  // explicit wins
  setenv("SCKL_THREADS", "garbage", 1);
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1u);  // malformed -> auto
  if (saved != nullptr)
    setenv("SCKL_THREADS", restore.c_str(), 1);
  else
    unsetenv("SCKL_THREADS");
}

TEST(ThreadPool, RunsJobOnEveryWorkerAndStaysUsableAfterThrow) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> total{0};
  pool.run([&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 4);
  EXPECT_THROW(pool.run([&](std::size_t worker) {
                 if (worker == 2) throw Error("boom");
               }),
               Error);
  total = 0;
  pool.run([&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 4);
}

}  // namespace
}  // namespace sckl
