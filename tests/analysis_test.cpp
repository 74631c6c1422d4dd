// Tests for the analysis extensions: slack (backward STA), yield curves,
// Latin hypercube sampling, and the Hermite PCE surrogate.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "circuit/bench_parser.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "core/kle_solver.h"
#include "field/kle_sampler.h"
#include "field/lhs.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/structured_mesher.h"
#include "placer/recursive_placer.h"
#include "ssta/mc_ssta.h"
#include "ssta/pce.h"
#include "ssta/yield.h"
#include "timing/critical_path.h"
#include "timing/slack.h"

namespace sckl {
namespace {

class SlackTest : public ::testing::Test {
 protected:
  SlackTest()
      : netlist_(circuit::parse_bench_string(circuit::c17_bench_text(),
                                             "c17")),
        placement_(placer::place(netlist_)),
        library_(timing::CellLibrary::default_90nm()),
        engine_(netlist_, placement_, library_) {
    result_ = engine_.run_nominal(&trace_);
  }

  circuit::Netlist netlist_;
  placer::Placement placement_;
  timing::CellLibrary library_;
  timing::StaEngine engine_;
  timing::StaTrace trace_;
  timing::StaResult result_;
};

TEST_F(SlackTest, WorstSlackIsConstraintMinusWorstDelay) {
  const double period = result_.worst_delay + 100.0;
  const timing::SlackReport report =
      compute_slacks(engine_, trace_, period);
  EXPECT_NEAR(report.worst_slack, 100.0, 1e-9);
  EXPECT_EQ(report.num_negative, 0u);
}

TEST_F(SlackTest, TightConstraintCreatesViolations) {
  const double period = result_.worst_delay - 50.0;
  const timing::SlackReport report =
      compute_slacks(engine_, trace_, period);
  EXPECT_NEAR(report.worst_slack, -50.0, 1e-9);
  EXPECT_GT(report.num_negative, 0u);
}

TEST_F(SlackTest, CriticalPathGatesCarryTheWorstSlack) {
  const double period = result_.worst_delay;  // zero-slack design
  const timing::SlackReport report =
      compute_slacks(engine_, trace_, period);
  const timing::CriticalPath path =
      extract_critical_path(engine_, result_, trace_);
  // Every gate on the critical path has (near-)zero slack.
  for (const auto& step : path.steps)
    EXPECT_NEAR(report.slack[step.gate], 0.0, 1e-6)
        << netlist_.gate(step.gate).name;
  // Off-path slacks are never below the worst slack.
  for (std::size_t g = 0; g < netlist_.num_gates_total(); ++g)
    if (std::isfinite(report.slack[g]))
      EXPECT_GE(report.slack[g], report.worst_slack - 1e-9);
}

TEST(Yield, EmpiricalYieldCountsCorrectly) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ssta::empirical_yield(samples, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(ssta::empirical_yield(samples, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ssta::empirical_yield(samples, 4.0), 1.0);
  EXPECT_THROW(ssta::empirical_yield({}, 1.0), Error);
}

TEST(Yield, EmpiricalCurveIsMonotoneFromZeroToOne) {
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.normal(100.0, 10.0));
  const auto curve = ssta::empirical_yield_curve(samples, 21);
  ASSERT_EQ(curve.size(), 21u);
  EXPECT_DOUBLE_EQ(curve.front().yield, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().yield, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].yield, curve[i - 1].yield);
    EXPECT_GT(curve[i].period, curve[i - 1].period);
  }
}

TEST(Yield, CanonicalYieldMatchesNormalCdf) {
  const ssta::CanonicalForm delay(100.0, {6.0, 8.0}, 0.0);  // sigma 10
  EXPECT_NEAR(ssta::canonical_yield(delay, 100.0), 0.5, 1e-12);
  EXPECT_NEAR(ssta::canonical_yield(delay, 110.0), 0.8413, 1e-3);
  EXPECT_NEAR(ssta::canonical_yield(delay, 80.0), 0.0228, 1e-3);
  // Inverse: period for a target yield.
  EXPECT_NEAR(ssta::canonical_period_for_yield(delay, 0.99865), 130.0, 0.1);
  EXPECT_NEAR(ssta::canonical_period_for_yield(delay, 0.5), 100.0, 1e-9);
}

TEST(Yield, CanonicalCurveTracksEmpiricalForNormalSamples) {
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(100.0, 10.0));
  const auto grid = ssta::empirical_yield_curve(samples, 15);
  const ssta::CanonicalForm delay(100.0, {10.0}, 0.0);
  const auto parametric = ssta::canonical_yield_curve(delay, grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_NEAR(parametric[i].yield, grid[i].yield, 0.02) << "point " << i;
}

TEST(InverseNormalCdf, RoundTripsWithCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}) {
    const double z = field::inverse_normal_cdf(p);
    EXPECT_NEAR(ssta::normal_cdf(z), p, 1e-7) << "p=" << p;
  }
  EXPECT_THROW(field::inverse_normal_cdf(0.0), Error);
  EXPECT_THROW(field::inverse_normal_cdf(1.0), Error);
}

TEST(LatinHypercube, MarginalsAreStandardNormal) {
  linalg::Matrix sample;
  field::latin_hypercube_normal(2000, 3, StreamKey{5, 0}, sample);
  for (std::size_t d = 0; d < 3; ++d) {
    RunningStats stats;
    for (std::size_t i = 0; i < 2000; ++i) stats.add(sample(i, d));
    // Stratification makes these estimates far tighter than sqrt(1/n).
    EXPECT_NEAR(stats.mean(), 0.0, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0, 0.03);
  }
}

TEST(LatinHypercube, StratificationCoversEveryStratum) {
  const std::size_t n = 64;
  linalg::Matrix sample;
  field::latin_hypercube_normal(n, 2, StreamKey{6, 0}, sample);
  // Exactly one sample per probability stratum per dimension.
  for (std::size_t d = 0; d < 2; ++d) {
    std::vector<int> hits(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = ssta::normal_cdf(sample(i, d));
      const auto stratum = std::min<std::size_t>(
          static_cast<std::size_t>(u * static_cast<double>(n)), n - 1);
      ++hits[stratum];
    }
    for (std::size_t s = 0; s < n; ++s) EXPECT_EQ(hits[s], 1) << s;
  }
}

TEST(LatinHypercube, ReducesMeanEstimatorVariance) {
  // Estimate E[sum xi^2] (= dims) with n samples, repeated; the LHS
  // estimator must have visibly lower spread than plain MC.
  const std::size_t n = 64;
  const std::size_t dims = 4;
  RunningStats plain_spread;
  RunningStats lhs_spread;
  for (int rep = 0; rep < 60; ++rep) {
    Rng rng_a(100 + rep);
    double plain = 0.0;
    for (std::size_t i = 0; i < n * dims; ++i) {
      const double x = rng_a.normal();
      plain += x * x;
    }
    plain_spread.add(plain / static_cast<double>(n));
    linalg::Matrix sample;
    field::latin_hypercube_normal(
        n, dims, StreamKey{100 + static_cast<std::uint64_t>(rep), 0}, sample);
    double lhs = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t d = 0; d < dims; ++d)
        lhs += sample(i, d) * sample(i, d);
    lhs_spread.add(lhs / static_cast<double>(n));
  }
  EXPECT_NEAR(plain_spread.mean(), 4.0, 0.15);
  EXPECT_NEAR(lhs_spread.mean(), 4.0, 0.05);
  EXPECT_LT(lhs_spread.stddev(), 0.5 * plain_spread.stddev());
}

TEST(PceModel, IndexLayoutAndClosedFormStatistics) {
  // dims=2: terms are [1, x0, x1, H2(x0), H2(x1), x0 x1].
  linalg::Vector coefficients = {10.0, 2.0, 0.0, 1.0, 0.0, 0.5};
  const ssta::PceModel model(2, coefficients, 0.25);
  EXPECT_EQ(model.num_terms(), 6u);
  EXPECT_EQ(model.linear_index(0), 1u);
  EXPECT_EQ(model.quadratic_index(1), 4u);
  EXPECT_EQ(model.cross_index(0, 1), 5u);
  EXPECT_DOUBLE_EQ(model.mean(), 10.0);
  EXPECT_DOUBLE_EQ(model.variance(), 4.0 + 1.0 + 0.25 + 0.25);
  EXPECT_NEAR(model.main_effect_fraction(0), 5.0 / 5.5, 1e-12);
  EXPECT_NEAR(model.interaction_fraction(), 0.25 / 5.5, 1e-12);
  // evaluate at xi = (1, -1): 10 + 2*1 + 1*(1-1)/sqrt2 + 0.5*(-1) = 11.5.
  EXPECT_NEAR(model.evaluate({1.0, -1.0}), 11.5, 1e-12);
  EXPECT_THROW(model.evaluate({1.0}), Error);
  EXPECT_THROW(ssta::PceModel(2, {1.0, 2.0}, 0.0), Error);
}

TEST(Pce, RecoversKnownQuadraticFunction) {
  // Synthetic "timer": y = 5 + 3 xi0 - 2 H2(xi1) + 0.7 xi0 xi1. Build a
  // fake 1-gate engine? Simpler: exercise the regression path through the
  // public API on a real engine below; here validate the algebra by
  // fitting via the model on c17 and checking MC agreement instead.
  const circuit::Netlist netlist =
      circuit::parse_bench_string(circuit::c17_bench_text(), "c17");
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);

  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 600, mesh::StructuredPattern::kCross);
  core::KleOptions kle_options;
  kle_options.num_eigenpairs = 12;
  const core::KleResult kle = core::solve_kle(mesh, kernel, kle_options);
  const auto locations = placement.physical_locations(netlist);
  const field::KleFieldSampler sampler(kle, 12, locations);
  const linalg::Matrix& g = sampler.operator_transposed();

  ssta::PceOptions options;
  options.dims_per_parameter = 3;
  options.num_samples = 600;
  const ssta::PceAnalysis analysis =
      fit_worst_delay_pce(engine, {&g, &g, &g, &g}, options);
  EXPECT_EQ(analysis.model.num_dimensions(), 12u);  // 3 x 4 parameters
  EXPECT_EQ(analysis.dimension_origin.size(), 12u);

  // The surrogate's mean/sigma track the Monte Carlo estimates.
  ssta::McSstaOptions mc_options;
  mc_options.num_samples = 4000;
  const ssta::McSstaResult mc = run_monte_carlo_ssta(
      engine, {&sampler, &sampler, &sampler, &sampler}, mc_options);
  EXPECT_NEAR(analysis.model.mean(), mc.worst_delay.mean(),
              0.02 * mc.worst_delay.mean());
  EXPECT_NEAR(analysis.model.sigma(), mc.worst_delay.stddev(),
              0.25 * mc.worst_delay.stddev());

  // Main effects sum to at most 1 and the leading modes dominate.
  double total_main = 0.0;
  for (std::size_t d = 0; d < 12; ++d) {
    const double f = analysis.model.main_effect_fraction(d);
    EXPECT_GE(f, 0.0);
    total_main += f;
  }
  EXPECT_LE(total_main, 1.0 + 1e-9);
  EXPECT_GT(total_main, 0.4);  // first-order effects carry the variance
}

TEST(Pce, RequiresEnoughSamples) {
  const circuit::Netlist netlist =
      circuit::parse_bench_string(circuit::c17_bench_text(), "c17");
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);
  const linalg::Matrix g(10, netlist.num_physical_gates());  // r x N_g
  ssta::PceOptions options;
  options.dims_per_parameter = 10;  // 40 dims -> 861 terms
  options.num_samples = 100;        // far too few
  try {
    fit_worst_delay_pce(engine, {&g, &g, &g, &g}, options);
    FAIL() << "fit_worst_delay_pce did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2x basis-size samples"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sckl
