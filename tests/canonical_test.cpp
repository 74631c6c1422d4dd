// Tests for the canonical first-order SSTA extension: canonical-form
// arithmetic, Clark's max against brute-force Monte Carlo, and the full
// propagation against the Monte Carlo SSTA reference.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/bench_parser.h"
#include "circuit/synthetic.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "core/kle_solver.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/structured_mesher.h"
#include "placer/recursive_placer.h"
#include "ssta/canonical.h"
#include "ssta/mc_ssta.h"

namespace sckl::ssta {
namespace {

TEST(NormalHelpers, CdfPdfValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
  EXPECT_NEAR(normal_pdf(0.0), 0.39894228, 1e-7);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072, 1e-7);
}

TEST(CanonicalForm, ConstantAndShift) {
  CanonicalForm c = CanonicalForm::constant(3.0, 4);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
  EXPECT_DOUBLE_EQ(c.sigma(), 0.0);
  c.shift(2.0);
  EXPECT_DOUBLE_EQ(c.mean(), 5.0);
  EXPECT_THROW(CanonicalForm(0.0, {}, -1.0), Error);
}

TEST(CanonicalForm, AdditionAddsSensitivitiesAndQuadratureIndependents) {
  const CanonicalForm a(1.0, {0.3, 0.0}, 0.4);
  CanonicalForm b(2.0, {0.1, -0.2}, 0.3);
  b += a;
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
  EXPECT_DOUBLE_EQ(b.sensitivities()[0], 0.4);
  EXPECT_DOUBLE_EQ(b.sensitivities()[1], -0.2);
  EXPECT_DOUBLE_EQ(b.independent(), 0.5);  // hypot(0.4, 0.3)
  EXPECT_NEAR(b.variance(), 0.16 + 0.04 + 0.25, 1e-12);
}

TEST(CanonicalForm, CovarianceFromSharedBasis) {
  const CanonicalForm x(0.0, {1.0, 2.0}, 3.0);
  const CanonicalForm y(0.0, {2.0, -1.0}, 5.0);
  EXPECT_DOUBLE_EQ(CanonicalForm::covariance(x, y), 0.0);
  const CanonicalForm z(0.0, {1.0, 1.0}, 0.0);
  EXPECT_DOUBLE_EQ(CanonicalForm::covariance(x, z), 3.0);
}

TEST(CanonicalForm, MaxOfPerfectlyTrackingFormsIsIdentity) {
  // With no independent part, two equal forms are the same random variable
  // and the max degenerates to either argument.
  const CanonicalForm x(5.0, {0.5, 0.2}, 0.0);
  const CanonicalForm m = CanonicalForm::maximum(x, x);
  EXPECT_DOUBLE_EQ(m.mean(), x.mean());
  EXPECT_NEAR(m.sigma(), x.sigma(), 1e-12);
}

TEST(CanonicalForm, IndependentPartsAreDistinctRandomVariables) {
  // Two forms with equal parameters but non-zero independent parts are NOT
  // the same RV: max(X, Y) sits strictly above the common mean (by
  // theta * phi(0) with theta = sqrt(2) * s_ind).
  const CanonicalForm x(5.0, {0.5}, 0.1);
  const CanonicalForm m = CanonicalForm::maximum(x, x);
  const double theta = std::sqrt(2.0) * 0.1;
  EXPECT_NEAR(m.mean(), 5.0 + theta * normal_pdf(0.0), 1e-12);
}

TEST(CanonicalForm, MaxOfDominantFormIsThatForm) {
  // Means 10 sigma apart: max(X, Y) ~ X.
  const CanonicalForm x(10.0, {0.5}, 0.0);
  const CanonicalForm y(0.0, {0.3}, 0.2);
  const CanonicalForm m = CanonicalForm::maximum(x, y);
  EXPECT_NEAR(m.mean(), 10.0, 1e-6);
  EXPECT_NEAR(m.sigma(), 0.5, 1e-4);
  EXPECT_NEAR(m.sensitivities()[0], 0.5, 1e-4);
}

class ClarkVsMonteCarloTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ClarkVsMonteCarloTest, MomentsMatchSimulation) {
  // X = mx + ax xi1 + bx eta_x, Y = my + ay xi1 + by eta_y; compare Clark's
  // mean/sigma of max(X, Y) against 200K simulated samples.
  const auto [mean_gap, correlation_knob] = GetParam();
  const CanonicalForm x(10.0, {0.8 * correlation_knob, 0.3}, 0.2);
  const CanonicalForm y(10.0 + mean_gap, {0.5 * correlation_knob, -0.4},
                        0.3);
  const CanonicalForm m = CanonicalForm::maximum(x, y);

  Rng rng(77);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double xi1 = rng.normal();
    const double xi2 = rng.normal();
    const double sample_x = 10.0 + 0.8 * correlation_knob * xi1 + 0.3 * xi2 +
                            0.2 * rng.normal();
    const double sample_y = 10.0 + mean_gap + 0.5 * correlation_knob * xi1 -
                            0.4 * xi2 + 0.3 * rng.normal();
    stats.add(std::max(sample_x, sample_y));
  }
  EXPECT_NEAR(m.mean(), stats.mean(), 0.02);
  EXPECT_NEAR(m.sigma(), stats.stddev(), 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    GapsAndCorrelations, ClarkVsMonteCarloTest,
    ::testing::Values(std::make_tuple(0.0, 1.0),   // tied means, correlated
                      std::make_tuple(0.0, 0.0),   // tied, independent
                      std::make_tuple(0.5, 1.0),   // small gap
                      std::make_tuple(2.0, 0.5))); // large gap

TEST(CanonicalSsta, MatchesMonteCarloOnC17) {
  const circuit::Netlist netlist =
      circuit::parse_bench_string(circuit::c17_bench_text(), "c17");
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);

  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 700, mesh::StructuredPattern::kCross);
  core::KleOptions kle_options;
  kle_options.num_eigenpairs = 25;
  const core::KleResult kle = core::solve_kle(mesh, kernel, kle_options);
  const auto locations = placement.physical_locations(netlist);
  const field::KleFieldSampler sampler(kle, 25, locations);

  // Canonical pass.
  const linalg::Matrix& g = sampler.operator_transposed();
  const CanonicalSstaResult canonical =
      run_canonical_ssta(engine, {&g, &g, &g, &g});

  // Monte Carlo reference with the same sampler.
  McSstaOptions mc_options;
  mc_options.num_samples = 20000;
  const McSstaResult mc = run_monte_carlo_ssta(
      engine, {&sampler, &sampler, &sampler, &sampler}, mc_options);

  EXPECT_NEAR(canonical.worst_delay.mean(), mc.worst_delay.mean(),
              0.02 * mc.worst_delay.mean());
  EXPECT_NEAR(canonical.worst_delay.sigma(), mc.worst_delay.stddev(),
              0.25 * mc.worst_delay.stddev());
  ASSERT_EQ(canonical.endpoint.size(), mc.endpoint.size());
  for (std::size_t e = 0; e < canonical.endpoint.size(); ++e) {
    EXPECT_NEAR(canonical.endpoint[e].mean(), mc.endpoint[e].mean(),
                0.02 * mc.endpoint[e].mean());
  }
}

TEST(CanonicalSsta, SingleRunBeatsMonteCarloRuntime) {
  // The whole point of the analytic engine: one propagation instead of
  // thousands. Verify on a mid-size circuit.
  const circuit::Netlist netlist = circuit::make_paper_circuit("c880");
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);

  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 700, mesh::StructuredPattern::kCross);
  core::KleOptions kle_options;
  kle_options.num_eigenpairs = 25;
  const core::KleResult kle = core::solve_kle(mesh, kernel, kle_options);
  const auto locations = placement.physical_locations(netlist);
  const field::KleFieldSampler sampler(kle, 25, locations);
  const linalg::Matrix& g = sampler.operator_transposed();

  const CanonicalSstaResult canonical =
      run_canonical_ssta(engine, {&g, &g, &g, &g});
  EXPECT_GT(canonical.worst_delay.mean(), 0.0);
  EXPECT_GT(canonical.worst_delay.sigma(), 0.0);

  McSstaOptions mc_options;
  mc_options.num_samples = 500;
  const McSstaResult mc = run_monte_carlo_ssta(
      engine, {&sampler, &sampler, &sampler, &sampler}, mc_options);
  const double mc_time = mc.sampling_seconds + mc.sta_seconds;
  EXPECT_LT(canonical.seconds, mc_time);
  // And it still lands near the MC distribution.
  EXPECT_NEAR(canonical.worst_delay.mean(), mc.worst_delay.mean(),
              0.05 * mc.worst_delay.mean());
}

TEST(CanonicalSsta, ValidatesOperators) {
  const circuit::Netlist netlist =
      circuit::parse_bench_string(circuit::c17_bench_text(), "c17");
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);
  const linalg::Matrix wrong(3, 5);
  EXPECT_THROW(
      run_canonical_ssta(engine, {&wrong, &wrong, &wrong, &wrong}), Error);
  EXPECT_THROW(
      run_canonical_ssta(engine, {nullptr, nullptr, nullptr, nullptr}),
      Error);
}

}  // namespace
}  // namespace sckl::ssta
