// Tests for src/timing: Elmore on hand-computed RC trees, PERI/Bakoglu
// slew, NLDM interpolation, the rank-one quadratic statistical model, the
// synthetic cell library, the STA engine on known circuits, and the block
// timer held bit for bit against the one-sample oracle (reference_sta.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <thread>

#include "circuit/bench_parser.h"
#include "circuit/synthetic.h"
#include "common/error.h"
#include "placer/recursive_placer.h"
#include "reference_sta.h"
#include "timing/cell_library.h"
#include "timing/library_io.h"
#include "timing/nldm.h"
#include "timing/rc_tree.h"
#include "timing/sta.h"
#include "timing/stat_gate_model.h"

namespace sckl::timing {
namespace {

TEST(RcTree, SingleSegmentElmore) {
  // Root - R=2 - node(C=3): delay = 2 * 3 = 6.
  RcTree tree;
  const std::size_t n1 = tree.add_node(0, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(tree.elmore_delay_to(n1), 6.0);
  EXPECT_DOUBLE_EQ(tree.total_capacitance(), 3.0);
}

TEST(RcTree, ChainElmoreHandComputed) {
  // Root - R1=1 - a(C=2) - R2=3 - b(C=4):
  // delay(a) = 1 * (2 + 4) = 6; delay(b) = 6 + 3 * 4 = 18.
  RcTree tree;
  const std::size_t a = tree.add_node(0, 1.0, 2.0);
  const std::size_t b = tree.add_node(a, 3.0, 4.0);
  const auto d = tree.elmore_delays();
  EXPECT_DOUBLE_EQ(d[a], 6.0);
  EXPECT_DOUBLE_EQ(d[b], 18.0);
}

TEST(RcTree, BranchingTreeSharesTrunkDelay) {
  // Root - R1=2 - t(C=1) with two branches: t - R=1 - x(C=5), t - R=4 - y(C=3).
  RcTree tree;
  const std::size_t t = tree.add_node(0, 2.0, 1.0);
  const std::size_t x = tree.add_node(t, 1.0, 5.0);
  const std::size_t y = tree.add_node(t, 4.0, 3.0);
  const auto d = tree.elmore_delays();
  const double trunk = 2.0 * (1.0 + 5.0 + 3.0);  // R1 * all downstream C
  EXPECT_DOUBLE_EQ(d[t], trunk);
  EXPECT_DOUBLE_EQ(d[x], trunk + 1.0 * 5.0);
  EXPECT_DOUBLE_EQ(d[y], trunk + 4.0 * 3.0);
}

TEST(RcTree, AddCapacitanceAffectsUpstreamDelay) {
  RcTree tree;
  const std::size_t a = tree.add_node(0, 1.0, 1.0);
  const double before = tree.elmore_delay_to(a);
  tree.add_capacitance(a, 2.0);
  EXPECT_DOUBLE_EQ(tree.elmore_delay_to(a), before + 1.0 * 2.0);
}

TEST(RcTree, InputValidation) {
  RcTree tree;
  EXPECT_THROW(tree.add_node(5, 1.0, 1.0), Error);
  EXPECT_THROW(tree.add_node(0, -1.0, 1.0), Error);
  EXPECT_THROW(tree.add_capacitance(3, 1.0), Error);
}

TEST(Slew, BakogluAndPeriComposition) {
  EXPECT_NEAR(bakoglu_step_slew(10.0), std::log(9.0) * 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(peri_slew(3.0, 4.0), 5.0);
  // Zero wire: slew passes through unchanged.
  EXPECT_DOUBLE_EQ(wire_output_slew(7.0, 0.0), 7.0);
  // Monotone in both arguments.
  EXPECT_GT(wire_output_slew(7.0, 5.0), 7.0);
  EXPECT_GT(wire_output_slew(9.0, 5.0), wire_output_slew(7.0, 5.0));
}

TEST(Nldm, ExactAtGridPointsAndBilinearBetween) {
  const NldmTable table({10.0, 20.0}, {1.0, 3.0},
                        {{5.0, 9.0}, {7.0, 15.0}});
  EXPECT_DOUBLE_EQ(table.lookup(10.0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(table.lookup(20.0, 3.0), 15.0);
  // Center: average of the four corners.
  EXPECT_DOUBLE_EQ(table.lookup(15.0, 2.0), 9.0);
  // Edge midpoints.
  EXPECT_DOUBLE_EQ(table.lookup(10.0, 2.0), 7.0);
  EXPECT_DOUBLE_EQ(table.lookup(15.0, 1.0), 6.0);
}

TEST(Nldm, ExtrapolatesLinearlyOutsideGrid) {
  const NldmTable table({10.0, 20.0}, {1.0, 3.0},
                        {{5.0, 9.0}, {7.0, 15.0}});
  // Below the slew axis: continue the first-segment slope.
  EXPECT_DOUBLE_EQ(table.lookup(0.0, 1.0), 3.0);
  // Beyond the load axis at slew 10: slope (9-5)/2 = 2 per load unit.
  EXPECT_DOUBLE_EQ(table.lookup(10.0, 5.0), 13.0);
}

TEST(Nldm, LookupIsTheColumnAtLoadInterpolatedAlongSlew) {
  // The load-first split the STA engine relies on, on every axis shape.
  const NldmTable grid(
      {10.0, 20.0, 40.0}, {1.0, 3.0, 9.0},
      {{5.0, 9.0, 21.0}, {7.0, 15.0, 30.0}, {8.0, 17.0, 41.0}});
  const NldmTable one_load({10.0, 20.0, 40.0}, {2.0}, {{5.0}, {7.0}, {8.0}});
  const NldmTable one_slew({30.0}, {1.0, 3.0}, {{4.0, 6.0}});
  const NldmTable one_point({30.0}, {2.0}, {{6.5}});
  for (const NldmTable* table : {&grid, &one_load, &one_slew, &one_point})
    for (const double load : {0.3, 1.0, 2.2, 9.0, 14.0}) {
      const std::vector<double> column = table->column_at_load(load);
      ASSERT_EQ(column.size(), table->slew_axis().size());
      for (const double slew : {2.0, 10.0, 17.5, 33.0, 90.0}) {
        const AxisPoint at = locate(table->slew_axis(), slew);
        const double split =
            column.size() == 1
                ? column[0]
                : interpolate(column[at.segment], column[at.segment + 1],
                              at.t);
        EXPECT_EQ(table->lookup(slew, load), split)
            << "slew " << slew << " load " << load;
      }
    }
}

TEST(Nldm, ValidatesConstruction) {
  EXPECT_THROW(NldmTable({2.0, 1.0}, {1.0}, {{1.0}, {2.0}}), Error);
  EXPECT_THROW(NldmTable({1.0}, {1.0, 2.0}, {{1.0}}), Error);
  EXPECT_THROW(NldmTable({}, {1.0}, {}), Error);
}

TEST(RankOneQuadratic, FactorArithmetic) {
  RankOneQuadratic s;
  s.linear = {0.1, -0.05, 0.0, 0.0};
  s.direction = {1.0, 0.0, 0.0, 0.0};
  s.quadratic = 0.01;
  EXPECT_DOUBLE_EQ(s.factor({0, 0, 0, 0}), 1.0);
  EXPECT_NEAR(s.factor({1, 0, 0, 0}), 1.0 + 0.1 + 0.01, 1e-12);
  EXPECT_NEAR(s.factor({1, 2, 0, 0}), 1.0 + 0.1 - 0.1 + 0.01, 1e-12);
  // At -100 sigma the quadratic term dominates: 1 - 10 + 100 = 91.
  EXPECT_DOUBLE_EQ(s.factor({-100, 0, 0, 0}, 0.2), 91.0);
  RankOneQuadratic pure_linear;
  pure_linear.linear = {-0.5, 0, 0, 0};
  EXPECT_DOUBLE_EQ(pure_linear.factor({10, 0, 0, 0}, 0.2), 0.2);
}

TEST(StatParameter, NamesAreStable) {
  EXPECT_STREQ(stat_parameter_name(kParamL), "L");
  EXPECT_STREQ(stat_parameter_name(kParamTox), "tox");
}

TEST(CellLibrary, DefaultLibraryCoversAllFunctions) {
  const CellLibrary lib = CellLibrary::default_90nm();
  using circuit::CellFunction;
  for (CellFunction f :
       {CellFunction::kBuf, CellFunction::kInv, CellFunction::kAnd,
        CellFunction::kNand, CellFunction::kOr, CellFunction::kNor,
        CellFunction::kXor, CellFunction::kXnor, CellFunction::kDff}) {
    const TimingCell& cell = lib.cell_for(f, 2);
    EXPECT_GT(cell.input_cap, 0.0);
    EXPECT_GT(cell.delay.lookup(40.0, 10.0), 0.0);
  }
  // Wide gates clamp to the largest characterized arity.
  const TimingCell& wide = lib.cell_for(circuit::CellFunction::kNand, 9);
  EXPECT_EQ(wide.arity, 4u);
  // No cells for pads.
  EXPECT_THROW(lib.cell_for(circuit::CellFunction::kInput, 0), Error);
}

TEST(CellLibrary, DelayIncreasesWithLoadAndArity) {
  const CellLibrary lib = CellLibrary::default_90nm();
  const TimingCell& nand2 = lib.cell_for(circuit::CellFunction::kNand, 2);
  const TimingCell& nand4 = lib.cell_for(circuit::CellFunction::kNand, 4);
  EXPECT_GT(nand2.delay.lookup(40.0, 30.0), nand2.delay.lookup(40.0, 5.0));
  EXPECT_GT(nand4.delay.lookup(40.0, 10.0), nand2.delay.lookup(40.0, 10.0));
  EXPECT_GT(nand2.output_slew.lookup(40.0, 30.0),
            nand2.output_slew.lookup(40.0, 5.0));
}

TEST(CellLibrary, RejectsDuplicates) {
  CellLibrary lib = CellLibrary::default_90nm();
  TimingCell duplicate;
  duplicate.function = circuit::CellFunction::kInv;
  duplicate.arity = 1;
  duplicate.name = "INV_DUP";
  EXPECT_THROW(lib.add_cell(duplicate), Error);
}

class StaC17Test : public ::testing::Test {
 protected:
  StaC17Test()
      : netlist_(circuit::parse_bench_string(circuit::c17_bench_text(),
                                             "c17")),
        placement_(placer::place(netlist_)),
        library_(CellLibrary::default_90nm()),
        engine_(netlist_, placement_, library_) {}

  circuit::Netlist netlist_;
  placer::Placement placement_;
  CellLibrary library_;
  StaEngine engine_;
};

TEST_F(StaC17Test, NominalDelayIsPlausible) {
  const StaResult r = engine_.run_nominal();
  ASSERT_EQ(r.endpoint_arrival.size(), 2u);
  // Three NAND levels plus wires. Note the wires are huge for this setup:
  // 6 gates spread over the full normalized die (~2 mm of routing per net
  // at 200 fF/mm), so several hundred ps per stage is expected.
  EXPECT_GT(r.worst_delay, 20.0);
  EXPECT_LT(r.worst_delay, 20000.0);
  for (double a : r.endpoint_arrival) {
    EXPECT_GT(a, 0.0);
    EXPECT_LE(a, r.worst_delay);
  }
  EXPECT_EQ(engine_.depth(), 4u);
}

TEST_F(StaC17Test, SlowerParametersSlowTheCircuit) {
  const std::vector<double> plus_sigma(netlist_.num_physical_gates(), 2.0);
  const std::vector<double> zeros(netlist_.num_physical_gates(), 0.0);
  // +2 sigma on L (the dominant positive sensitivity) slows every gate.
  const StaResult nominal = engine_.run_nominal();
  const StaResult slow = engine_.run(
      {plus_sigma.data(), zeros.data(), zeros.data(), zeros.data()});
  EXPECT_GT(slow.worst_delay, nominal.worst_delay * 1.02);
  // Wider devices (+W) speed it up.
  const StaResult fast = engine_.run(
      {zeros.data(), plus_sigma.data(), zeros.data(), zeros.data()});
  EXPECT_LT(fast.worst_delay, nominal.worst_delay);
}

TEST_F(StaC17Test, DeterministicAcrossRuns) {
  const StaResult a = engine_.run_nominal();
  const StaResult b = engine_.run_nominal();
  EXPECT_EQ(a.worst_delay, b.worst_delay);
}

TEST(StaEngine, SequentialCircuitHasDffEndpoints) {
  circuit::Netlist n("seq");
  n.add_gate("pi", circuit::CellFunction::kInput, {});
  n.add_gate("g1", circuit::CellFunction::kInv, {"pi"});
  n.add_gate("ff", circuit::CellFunction::kDff, {"g1"});
  n.add_gate("g2", circuit::CellFunction::kInv, {"ff"});
  n.add_gate("g2_po", circuit::CellFunction::kOutput, {"g2"});
  n.finalize();
  const placer::Placement p = placer::place(n);
  const CellLibrary lib = CellLibrary::default_90nm();
  const StaEngine engine(n, p, lib);
  EXPECT_EQ(engine.num_endpoints(), 2u);  // PO + DFF D pin
  const StaResult r = engine.run_nominal();
  // The DFF launches with its clk->Q delay, so the PO path is non-zero
  // even though the D path has just one inverter.
  for (double a : r.endpoint_arrival) EXPECT_GT(a, 0.0);
}

TEST(StaEngine, TiedArcsKeepTheFirstFanin) {
  // Both pins of g hang off the same net at the same location, so their
  // arcs tie exactly in every sample; the first fanin keeps the arc.
  circuit::Netlist n("tie");
  n.add_gate("pi", circuit::CellFunction::kInput, {});
  n.add_gate("g", circuit::CellFunction::kNand, {"pi", "pi"});
  n.add_gate("g_po", circuit::CellFunction::kOutput, {"g"});
  n.finalize();
  const placer::Placement p = placer::place(n);
  const CellLibrary lib = CellLibrary::default_90nm();
  const StaEngine engine(n, p, lib);
  const std::size_t g = n.index_of("g");
  ASSERT_EQ(engine.edge_elmore(g, 0), engine.edge_elmore(g, 1));
  StaTrace trace;
  engine.run_nominal(&trace);
  EXPECT_EQ(trace.worst_arc[g], 0u);
}

TEST(StaEngine, LongerWiresIncreaseDelay) {
  // Same netlist placed on a tiny vs a huge die: wire delay must grow.
  const circuit::Netlist n =
      circuit::parse_bench_string(circuit::c17_bench_text(), "c17");
  const CellLibrary lib = CellLibrary::default_90nm();
  const placer::Placement small_die =
      placer::place(n, {{-0.1, -0.1}, {0.1, 0.1}});
  const placer::Placement big_die =
      placer::place(n, {{-4.0, -4.0}, {4.0, 4.0}});
  const StaEngine engine_small(n, small_die, lib);
  const StaEngine engine_big(n, big_die, lib);
  EXPECT_GT(engine_big.run_nominal().worst_delay,
            engine_small.run_nominal().worst_delay);
}

// --- the block timer against the one-sample oracle -------------------------

struct PlacedCircuit {
  circuit::Netlist netlist;
  placer::Placement placement;
};

PlacedCircuit place_paper_circuit(const std::string& name) {
  PlacedCircuit c{circuit::make_paper_circuit(name, 1), {}};
  c.placement = placer::place(c.netlist);
  return c;
}

/// Sample-major parameter rows: `count` samples of the 4 parameters, each
/// row `stride` doubles long (padding past the physical gates). Mostly
/// N(0, 1), with a few 6-sigma values so the factor clamp and the tables'
/// extrapolation are exercised.
std::vector<std::vector<double>> random_parameters(std::size_t count,
                                                   std::size_t stride,
                                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  std::vector<std::vector<double>> blocks(kNumStatParameters);
  for (auto& block : blocks) {
    block.resize(count * stride);
    for (double& v : block) v = normal(rng);
    for (std::size_t k = 0; k < block.size(); k += 97)
      block[k] = (k % 2 == 0 ? 6.0 : -6.0);
  }
  return blocks;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Times `count` samples with run_block and checks every sample's worst
/// delay and endpoint arrivals against reference_sta by memcmp.
void expect_block_matches_reference(const StaEngine& engine,
                                    std::size_t count, std::uint64_t seed) {
  const std::size_t num_physical = engine.netlist().num_physical_gates();
  const std::size_t stride = num_physical + 3;
  const auto blocks = random_parameters(count, stride, seed);
  StaBlockResult out;
  engine.run_block({blocks[0].data(), blocks[1].data(), blocks[2].data(),
                    blocks[3].data()},
                   stride, count, out);
  ASSERT_EQ(out.worst_delay.size(), count);
  ASSERT_EQ(out.endpoint_arrival.size(), count * engine.num_endpoints());
  for (std::size_t i = 0; i < count; ++i) {
    const ParameterView row{blocks[0].data() + i * stride,
                            blocks[1].data() + i * stride,
                            blocks[2].data() + i * stride,
                            blocks[3].data() + i * stride};
    const StaResult expected = reference_sta(engine, row);
    ASSERT_TRUE(same_bits(out.worst_delay[i], expected.worst_delay))
        << "sample " << i << " of " << count << ": " << out.worst_delay[i]
        << " vs " << expected.worst_delay;
    for (std::size_t e = 0; e < engine.num_endpoints(); ++e)
      ASSERT_TRUE(same_bits(out.endpoint_arrival[e * count + i],
                            expected.endpoint_arrival[e]))
          << "sample " << i << " of " << count << ", endpoint " << e;
  }
}

void expect_nominal_trace_matches_reference(const StaEngine& engine) {
  StaTrace trace;
  const StaResult result = engine.run_nominal(&trace);
  StaTrace expected_trace;
  const StaResult expected = reference_sta(
      engine, {nullptr, nullptr, nullptr, nullptr}, &expected_trace);
  EXPECT_TRUE(same_bits(result.worst_delay, expected.worst_delay));
  ASSERT_EQ(result.endpoint_arrival.size(), expected.endpoint_arrival.size());
  EXPECT_EQ(0, std::memcmp(result.endpoint_arrival.data(),
                           expected.endpoint_arrival.data(),
                           expected.endpoint_arrival.size() * sizeof(double)));
  ASSERT_EQ(trace.arrival.size(), expected_trace.arrival.size());
  ASSERT_EQ(trace.slew.size(), expected_trace.slew.size());
  EXPECT_EQ(0, std::memcmp(trace.arrival.data(), expected_trace.arrival.data(),
                           trace.arrival.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(trace.slew.data(), expected_trace.slew.data(),
                           trace.slew.size() * sizeof(double)));
  EXPECT_EQ(trace.worst_arc, expected_trace.worst_arc);
}

class StaBlockTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StaBlockTest, EverySampleMatchesTheOracleBitForBit) {
  const PlacedCircuit c = place_paper_circuit(GetParam());
  const CellLibrary library = CellLibrary::default_90nm();
  const StaEngine engine(c.netlist, c.placement, library);
  if (std::string(GetParam())[0] == 's') {
    ASSERT_FALSE(c.netlist.flip_flops().empty());
    EXPECT_GT(engine.num_endpoints(), c.netlist.primary_outputs().size());
  }
  // 300 leaves a ragged last chunk.
  for (const std::size_t count : {1u, 7u, 32u, 256u, 300u})
    expect_block_matches_reference(engine, count, 1000 + count);
}

TEST_P(StaBlockTest, NominalTraceMatchesTheOracle) {
  const PlacedCircuit c = place_paper_circuit(GetParam());
  const CellLibrary library = CellLibrary::default_90nm();
  const StaEngine engine(c.netlist, c.placement, library);
  expect_nominal_trace_matches_reference(engine);
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, StaBlockTest,
                         ::testing::Values("c5315", "s5378"));

TEST(StaBlock, SharedTrunkWireModelMatchesTheOracle) {
  const PlacedCircuit c = place_paper_circuit("s5378");
  CellLibrary library = CellLibrary::default_90nm();
  Technology technology = library.technology();
  technology.wire_model = WireModel::kSharedTrunkTree;
  library.set_technology(technology);
  const StaEngine engine(c.netlist, c.placement, library);
  expect_block_matches_reference(engine, 40, 7);
  expect_nominal_trace_matches_reference(engine);
}

TEST(StaBlock, EveryTableShapeMatchesTheOracle) {
  // A parsed library with 5-point axes in which one cell has a one-point
  // load axis, then the same library with tables the text format cannot
  // carry: an output-slew table on its own 3-point slew axis, and a delay
  // table with a one-point slew axis.
  const CellLibrary base = CellLibrary::default_90nm();
  const std::vector<double> slews{5.0, 20.0, 60.0, 150.0, 400.0};
  const std::vector<double> loads{0.5, 2.0, 8.0, 25.0, 80.0};
  const auto resample = [](const NldmTable& table,
                           const std::vector<double>& slew_axis,
                           const std::vector<double>& load_axis) {
    std::vector<std::vector<double>> rows;
    for (double s : slew_axis) {
      rows.emplace_back();
      for (double c : load_axis) rows.back().push_back(table.lookup(s, c));
    }
    return NldmTable(slew_axis, load_axis, rows);
  };
  CellLibrary one_load;
  one_load.set_technology(base.technology());
  const std::string inv = base.cell_for(circuit::CellFunction::kInv, 1).name;
  for (TimingCell cell : base.cells()) {
    const std::vector<double> cell_loads =
        cell.name == inv ? std::vector<double>{11.0} : loads;
    cell.delay = resample(cell.delay, slews, cell_loads);
    cell.output_slew = resample(cell.output_slew, slews, cell_loads);
    one_load.add_cell(cell);
  }
  const CellLibrary parsed = parse_library(write_library(one_load));
  EXPECT_EQ(parsed.cell_for(circuit::CellFunction::kInv, 1)
                .delay.load_axis()
                .size(),
            1u);

  CellLibrary mixed;
  mixed.set_technology(parsed.technology());
  for (std::size_t k = 0; k < parsed.cells().size(); ++k) {
    TimingCell cell = parsed.cells()[k];
    if (k % 3 == 1)
      cell.output_slew = resample(cell.output_slew, {15.0, 70.0, 260.0},
                                  cell.delay.load_axis());
    else if (k % 3 == 2)
      cell.delay = resample(cell.delay, {50.0}, cell.delay.load_axis());
    mixed.add_cell(cell);
  }

  const PlacedCircuit c = place_paper_circuit("c5315");
  for (const CellLibrary* library :
       {&parsed, static_cast<const CellLibrary*>(&mixed)}) {
    const StaEngine engine(c.netlist, c.placement, *library);
    expect_block_matches_reference(engine, 37, 11);
    expect_nominal_trace_matches_reference(engine);
  }
}

TEST(StaBlock, ConcurrentCallersShareOneConstEngine) {
  // run_block keeps all its state in the caller's StaBlockResult, so
  // threads timing blocks on one engine must each get the serial bits.
  const PlacedCircuit c = place_paper_circuit("s5378");
  const CellLibrary library = CellLibrary::default_90nm();
  const StaEngine engine(c.netlist, c.placement, library);
  const std::size_t stride = c.netlist.num_physical_gates();
  constexpr std::size_t kCount = 48;
  const auto blocks = random_parameters(kCount, stride, 5);
  const ParameterView view{blocks[0].data(), blocks[1].data(),
                           blocks[2].data(), blocks[3].data()};
  StaBlockResult serial;
  engine.run_block(view, stride, kCount, serial);

  constexpr std::size_t kThreads = 4;
  std::vector<StaBlockResult> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int repeat = 0; repeat < 3; ++repeat)
        engine.run_block(view, stride, kCount, results[t]);
    });
  for (std::thread& thread : threads) thread.join();
  for (const StaBlockResult& r : results) {
    EXPECT_EQ(0, std::memcmp(r.worst_delay.data(), serial.worst_delay.data(),
                             kCount * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(r.endpoint_arrival.data(),
                             serial.endpoint_arrival.data(),
                             serial.endpoint_arrival.size() * sizeof(double)));
  }
}

}  // namespace
}  // namespace sckl::timing
