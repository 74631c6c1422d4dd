// Cross-cutting property suites (parameterized sweeps).
//
// Each suite states an invariant of the system and checks it across a
// family of configurations: kernels x meshes for the KLE, seeds for the
// mesher/partitioner, random topologies for the RC trees, circuits for the
// STA. These complement the example-based unit tests with the "for all"
// style guarantees the numerics rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "circuit/bench_parser.h"
#include "circuit/synthetic.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "core/kle_solver.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"
#include "mesh/structured_mesher.h"
#include "placer/fm_partitioner.h"
#include "placer/hypergraph.h"
#include "placer/recursive_placer.h"
#include "ssta/canonical.h"
#include "timing/rc_tree.h"
#include "timing/sta.h"

namespace sckl {
namespace {

// ---------------------------------------------------------------- KLE ----

struct KleCase {
  const char* kernel_name;
  std::unique_ptr<kernels::CovarianceKernel> (*make)();
};

std::unique_ptr<kernels::CovarianceKernel> make_gaussian() {
  return std::make_unique<kernels::GaussianKernel>(2.7974);
}
std::unique_ptr<kernels::CovarianceKernel> make_exponential() {
  return std::make_unique<kernels::ExponentialKernel>(1.5);
}
std::unique_ptr<kernels::CovarianceKernel> make_separable() {
  return std::make_unique<kernels::SeparableL1Kernel>(1.0);
}
std::unique_ptr<kernels::CovarianceKernel> make_matern() {
  return std::make_unique<kernels::MaternKernel>(3.0, 2.5);
}
std::unique_ptr<kernels::CovarianceKernel> make_spherical() {
  return std::make_unique<kernels::SphericalKernel>(1.2);
}

class KleInvariantTest : public ::testing::TestWithParam<KleCase> {};

TEST_P(KleInvariantTest, SpectrumIsNonNegativeDescendingAndBounded) {
  const auto kernel = GetParam().make();
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 400, mesh::StructuredPattern::kCross);
  core::KleOptions options;
  options.num_eigenpairs = 40;
  const core::KleResult kle = core::solve_kle(mesh, *kernel, options);
  double sum = 0.0;
  for (std::size_t j = 0; j < 40; ++j) {
    EXPECT_GE(kle.eigenvalue(j), 0.0) << GetParam().kernel_name;
    if (j > 0) EXPECT_LE(kle.eigenvalue(j), kle.eigenvalue(j - 1) + 1e-12);
    sum += kle.eigenvalue(j);
  }
  // Total variance of a normalized kernel's projection never exceeds
  // area(D) = 4.
  EXPECT_LE(sum, 4.0 + 1e-6) << GetParam().kernel_name;
  EXPECT_GT(sum, 0.5) << GetParam().kernel_name;
}

TEST_P(KleInvariantTest, EigenfunctionsPhiOrthonormal) {
  const auto kernel = GetParam().make();
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 250,
      mesh::StructuredPattern::kDiagonal);
  core::KleOptions options;
  options.num_eigenpairs = 10;
  const core::KleResult kle = core::solve_kle(mesh, *kernel, options);
  for (std::size_t p = 0; p < 10; ++p) {
    for (std::size_t q = p; q < 10; ++q) {
      double inner = 0.0;
      for (std::size_t t = 0; t < mesh.num_triangles(); ++t)
        inner += kle.coefficient(t, p) * kle.coefficient(t, q) *
                 mesh.area(t);
      // Degenerate (repeated) eigenvalues admit any orthogonal mixing, so
      // only require orthonormality where eigenvalues are separated.
      const bool distinct =
          p == q || std::abs(kle.eigenvalue(p) - kle.eigenvalue(q)) >
                        1e-6 * kle.eigenvalue(0);
      if (distinct)
        EXPECT_NEAR(inner, p == q ? 1.0 : 0.0, 1e-8)
            << GetParam().kernel_name << " pair " << p << "," << q;
    }
  }
}

TEST_P(KleInvariantTest, ReconstructionVarianceNeverExceedsUnity) {
  // Var p(x) = sum lambda_j f_j(x)^2 <= K(x, x) = 1 for every truncation
  // (the truncated KLE always under-represents variance).
  const auto kernel = GetParam().make();
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 400, mesh::StructuredPattern::kCross);
  core::KleOptions options;
  options.num_eigenpairs = 30;
  const core::KleResult kle = core::solve_kle(mesh, *kernel, options);
  Rng rng(7);
  for (int probe = 0; probe < 50; ++probe) {
    const geometry::Point2 x{rng.uniform(-0.99, 0.99),
                             rng.uniform(-0.99, 0.99)};
    const double variance = kle.reconstruct_kernel(x, x, 30);
    EXPECT_LE(variance, 1.0 + 0.05) << GetParam().kernel_name;
    EXPECT_GE(variance, 0.0);
  }
}

TEST_P(KleInvariantTest, SolveOutputIsFiniteEverywhere) {
  // Finite-or-throw: whatever solve_kle returns must be entirely finite —
  // NaN/Inf inputs are rejected with a diagnostic sckl::Error before they
  // can reach the spectrum (see NonFiniteGalerkinMatrixIsRejected in
  // robust_test.cpp for the throwing half of the contract).
  const auto kernel = GetParam().make();
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), 250, mesh::StructuredPattern::kCross);
  core::KleOptions options;
  options.num_eigenpairs = 20;
  const core::KleResult kle = core::solve_kle(mesh, *kernel, options);
  for (std::size_t j = 0; j < kle.num_eigenpairs(); ++j) {
    EXPECT_TRUE(std::isfinite(kle.eigenvalue(j))) << GetParam().kernel_name;
    for (std::size_t i = 0; i < kle.basis_size(); ++i)
      EXPECT_TRUE(std::isfinite(kle.coefficient(i, j)))
          << GetParam().kernel_name << " d(" << i << "," << j << ")";
  }
}

TEST_P(KleInvariantTest, KernelIsFiniteOnTheDieAndRejectsNonFiniteInput) {
  const auto kernel = GetParam().make();
  Rng rng(19);
  for (int probe = 0; probe < 200; ++probe) {
    const geometry::Point2 x{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const geometry::Point2 y{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const double k = (*kernel)(x, y);
    EXPECT_TRUE(std::isfinite(k)) << GetParam().kernel_name;
    EXPECT_LE(std::abs(k), 1.0 + 1e-9) << GetParam().kernel_name;
  }
  // A poisoned coordinate must fail loudly with the kNonFinite code, never
  // return NaN (the separable kernel guards inside its own evaluation).
  const geometry::Point2 good{0.25, -0.5};
  for (const double bad_value : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
    const geometry::Point2 bad{bad_value, 0.0};
    try {
      const double k = (*kernel)(good, bad);
      EXPECT_TRUE(false) << GetParam().kernel_name << " returned " << k;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNonFinite) << GetParam().kernel_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KleInvariantTest,
    ::testing::Values(KleCase{"gaussian", &make_gaussian},
                      KleCase{"exponential", &make_exponential},
                      KleCase{"separable", &make_separable},
                      KleCase{"matern", &make_matern},
                      KleCase{"spherical", &make_spherical}),
    [](const ::testing::TestParamInfo<KleCase>& info) {
      return info.param.kernel_name;
    });

// ----------------------------------------------------------- mesher ----

class RefineSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefineSeedTest, TilesAndMeetsConstraintsForEverySeed) {
  mesh::RefinementOptions options;
  options.max_area = 0.01;
  options.seed = GetParam();
  const mesh::TriMesh mesh =
      mesh::refined_delaunay_mesh(geometry::BoundingBox::unit_die(), options);
  const mesh::MeshQuality q = mesh.quality();
  EXPECT_NEAR(q.total_area, 4.0, 1e-6);
  EXPECT_LE(q.max_area, options.max_area * (1 + 1e-9));
  EXPECT_GE(q.min_angle_degrees, options.min_angle_degrees - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineSeedTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 13u, 42u, 1234u));

// ------------------------------------------------------ partitioner ----

class FmSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FmSeedTest, BalancedAndConsistentForEverySeed) {
  circuit::SyntheticSpec spec;
  spec.num_gates = 250;
  spec.seed = 31;
  const circuit::Netlist netlist = circuit::synthetic_circuit(spec);
  const placer::Hypergraph graph = placer::build_hypergraph(netlist);
  placer::FmOptions options;
  options.seed = GetParam();
  const placer::FmResult result = placer::fm_bisect(graph, options);
  EXPECT_EQ(result.cut, placer::cut_size(graph, result.side));
  const double fraction = static_cast<double>(result.size0) /
                          static_cast<double>(graph.num_cells);
  EXPECT_GE(fraction, 0.5 - options.balance_tolerance - 0.01);
  EXPECT_LE(fraction, 0.5 + options.balance_tolerance + 0.01);
  // Determinism: same seed, same answer.
  const placer::FmResult again = placer::fm_bisect(graph, options);
  EXPECT_EQ(result.cut, again.cut);
  EXPECT_EQ(result.side, again.side);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmSeedTest,
                         ::testing::Values(1u, 5u, 9u, 77u, 1001u));

// ---------------------------------------------------------- RC tree ----

// Brute-force Elmore reference: delay(k) = sum_j R(path(root->k) intersect
// path(root->j)) * C_j, computed directly from parent pointers.
std::vector<double> brute_force_elmore(
    const std::vector<std::size_t>& parent,
    const std::vector<double>& resistance,
    const std::vector<double>& capacitance) {
  const std::size_t n = parent.size();
  auto path_to_root = [&](std::size_t node) {
    std::vector<std::size_t> path;
    while (node != 0) {
      path.push_back(node);
      node = parent[node];
    }
    return path;  // excludes root; resistances live on these nodes
  };
  std::vector<double> delay(n, 0.0);
  for (std::size_t k = 1; k < n; ++k) {
    const auto pk = path_to_root(k);
    for (std::size_t j = 0; j < n; ++j) {
      const auto pj = path_to_root(j);
      double shared_r = 0.0;
      for (std::size_t a : pk)
        for (std::size_t b : pj)
          if (a == b) shared_r += resistance[a];
      delay[k] += shared_r * capacitance[j];
    }
  }
  return delay;
}

class RcTreeRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RcTreeRandomTest, MatchesBruteForceOnRandomTopologies) {
  Rng rng(GetParam());
  timing::RcTree tree;
  std::vector<std::size_t> parent = {0};
  std::vector<double> resistance = {0.0};
  std::vector<double> capacitance = {rng.uniform(0.1, 2.0)};
  tree.add_capacitance(0, capacitance[0]);
  const std::size_t extra = 3 + rng.uniform_index(12);
  for (std::size_t i = 0; i < extra; ++i) {
    const std::size_t p = rng.uniform_index(parent.size());
    const double r = rng.uniform(0.1, 3.0);
    const double c = rng.uniform(0.1, 4.0);
    tree.add_node(p, r, c);
    parent.push_back(p);
    resistance.push_back(r);
    capacitance.push_back(c);
  }
  const std::vector<double> fast = tree.elmore_delays();
  const std::vector<double> slow =
      brute_force_elmore(parent, resistance, capacitance);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t k = 0; k < fast.size(); ++k)
    EXPECT_NEAR(fast[k], slow[k], 1e-9) << "node " << k;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcTreeRandomTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// --------------------------------------------------------------- STA ----

class StaMonotonicityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StaMonotonicityTest, SlowerProcessNeverSpeedsUpTheCircuit) {
  const circuit::Netlist netlist =
      circuit::make_paper_circuit(GetParam(), 3);
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);
  const std::size_t ng = netlist.num_physical_gates();
  const std::vector<double> zeros(ng, 0.0);
  double previous = 0.0;
  for (double sigma : {-1.0, 0.0, 1.0, 2.0}) {
    const std::vector<double> level(ng, sigma);
    // +L slows every gate (dominant positive sensitivity).
    const timing::StaResult result = engine.run(
        {level.data(), zeros.data(), zeros.data(), zeros.data()});
    if (sigma > -1.0) EXPECT_GT(result.worst_delay, previous);
    previous = result.worst_delay;
  }
}

TEST_P(StaMonotonicityTest, EndpointsAndDepthAreConsistent) {
  const circuit::Netlist netlist =
      circuit::make_paper_circuit(GetParam(), 3);
  const placer::Placement placement = placer::place(netlist);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(netlist, placement, library);
  const timing::StaResult result = engine.run_nominal();
  EXPECT_EQ(result.endpoint_arrival.size(),
            netlist.primary_outputs().size() + netlist.flip_flops().size());
  double max_arrival = 0.0;
  for (double a : result.endpoint_arrival) {
    EXPECT_GE(a, 0.0);
    max_arrival = std::max(max_arrival, a);
  }
  EXPECT_DOUBLE_EQ(max_arrival, result.worst_delay);
}

INSTANTIATE_TEST_SUITE_P(Circuits, StaMonotonicityTest,
                         ::testing::Values("c880", "c1355", "s5378"));

// --------------------------------------------------------- Clark max ----

class ClarkPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(ClarkPropertyTest, MaxDominatesBothArgumentsInMean) {
  const auto [gap, shared, independent] = GetParam();
  const ssta::CanonicalForm x(50.0, {shared, 0.2}, independent);
  const ssta::CanonicalForm y(50.0 + gap, {0.3, shared}, independent);
  const ssta::CanonicalForm m = ssta::CanonicalForm::maximum(x, y);
  // Jensen: E[max(X, Y)] >= max(E X, E Y).
  EXPECT_GE(m.mean(), std::max(x.mean(), y.mean()) - 1e-9);
  // ... and at most E X + E Y - min (loose) plus a sigma; sanity bound.
  EXPECT_LE(m.mean(),
            std::max(x.mean(), y.mean()) + x.sigma() + y.sigma() + 1e-9);
  // Variance of the max of positively dependent normals is bounded by the
  // larger argument variance plus the Clark cross term; sanity: not above
  // the sum of both variances.
  EXPECT_LE(m.variance(), x.variance() + y.variance() + 1e-9);
  EXPECT_GE(m.variance(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClarkPropertyTest,
    ::testing::Values(std::make_tuple(0.0, 0.5, 0.1),
                      std::make_tuple(1.0, 0.5, 0.1),
                      std::make_tuple(5.0, 0.5, 0.1),
                      std::make_tuple(0.0, 0.0, 0.5),
                      std::make_tuple(2.0, 0.9, 0.0)));

// -------------------------------------------------------- statistics ----

class StatisticsFiniteTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatisticsFiniteTest, SummariesAreFiniteOrThrowOnPoisonedInput) {
  // Finite-or-throw for the batch statistics helpers: clean input always
  // yields finite summaries; any NaN/Inf entry raises kNonFinite instead of
  // silently poisoning the result.
  Rng rng(GetParam());
  std::vector<double> values(64);
  for (double& v : values) v = rng.uniform(-100.0, 100.0);
  const double mean = mean_of(values);
  const double stddev = stddev_of(values);
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_TRUE(std::isfinite(stddev));
  EXPECT_GE(stddev, 0.0);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    const double value = quantile(values, q);
    EXPECT_TRUE(std::isfinite(value));
    EXPECT_GE(value, -100.0);
    EXPECT_LE(value, 100.0);
  }

  const std::size_t poisoned_index = rng.uniform_index(values.size());
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    std::vector<double> poisoned = values;
    poisoned[poisoned_index] = poison;
    for (auto fn : {+[](const std::vector<double>& v) { (void)mean_of(v); },
                    +[](const std::vector<double>& v) { (void)stddev_of(v); },
                    +[](const std::vector<double>& v) {
                      (void)quantile(v, 0.5);
                    }}) {
      try {
        fn(poisoned);
        ADD_FAILURE() << "expected kNonFinite for poison " << poison;
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatisticsFiniteTest,
                         ::testing::Values(3u, 14u, 159u, 2653u));

// --------------------------------------------------- synthetic suite ----

class SyntheticSweepTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(SyntheticSweepTest, GeneratedCircuitsAreWellFormed) {
  const auto [gates, dff_fraction] = GetParam();
  circuit::SyntheticSpec spec;
  spec.num_gates = gates;
  spec.dff_fraction = dff_fraction;
  spec.seed = 17;
  const circuit::Netlist netlist = circuit::synthetic_circuit(spec);
  EXPECT_EQ(netlist.num_physical_gates(), gates);
  // Every PO's driver exists; every fanout edge mirrors a fanin edge.
  for (std::size_t g = 0; g < netlist.num_gates_total(); ++g) {
    for (std::size_t f : netlist.gate(g).fanin) {
      const auto& fanout = netlist.gate(f).fanout;
      EXPECT_NE(std::find(fanout.begin(), fanout.end(), g), fanout.end());
    }
  }
  // Levelizable and placeable end to end.
  const circuit::Levelization lv = circuit::levelize(netlist);
  EXPECT_EQ(lv.topological_order.size(), netlist.num_gates_total());
  const placer::Placement placement = placer::place(netlist);
  for (std::size_t g : netlist.physical_gates())
    EXPECT_TRUE(placement.die.contains(placement.location[g]));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SyntheticSweepTest,
    ::testing::Values(std::make_tuple(50u, 0.0), std::make_tuple(50u, 0.3),
                      std::make_tuple(500u, 0.0),
                      std::make_tuple(500u, 0.15),
                      std::make_tuple(2000u, 0.1)));

}  // namespace
}  // namespace sckl
