// Block-based static timing analysis engine.
//
// This is the "core timer inside the Monte Carlo loops" of Sec. 5.1:
//  - Elmore wire delay [19] on star RC nets derived from the placement,
//  - PERI wire slew [20] with the Bakoglu step metric [21],
//  - NLDM gate delay / output slew scaled by rank-one quadratic functions
//    [22] of the four statistical parameters (L, W, Vt, tox),
//  - forward propagation of arrival times and slews in topological order,
//    max at merges; DFFs launch at their clk->Q delay and capture at their
//    D pin; worst delay is the max over all endpoints (POs + DFF D pins).
//
// Everything that does not depend on the sample is gathered at
// construction: levelization, cells, wire parasitics, each fanin's Elmore
// delay and Bakoglu step term, and each NLDM table interpolated once along
// its gate's fixed load (NldmTable::column_at_load). run_block() then times
// a block of Monte Carlo samples at once: gate by gate in topological
// order, with the samples of a chunk as the inner, contiguous loop, so each
// arc locates its input slew on the table axis once per sample and nothing
// is allocated per sample.
//
// Bit contract: every sample keeps the arithmetic and order of a one-sample
// walk (the same compares and maxima, the same interpolation formula as
// NldmTable::lookup), so a sample's worst delay and endpoint arrivals do not
// depend on the block it is timed in. sta.cpp is compiled with
// -ffp-contract=off so that no mul+add pair is fused on any target. run()
// and run_nominal() are blocks of one.
#pragma once

#include <array>
#include <vector>

#include "circuit/levelize.h"
#include "placer/recursive_placer.h"
#include "timing/cell_library.h"

namespace sckl::timing {

/// Statistical parameter inputs: for each of the 4 parameters, a pointer to
/// N_physical_gates normalized values (physical_gates() order), or nullptr
/// for nominal (all zeros). In a block, sample i's values start
/// i * stride doubles further on.
using ParameterView = std::array<const double*, kNumStatParameters>;

/// Result of one STA evaluation.
struct StaResult {
  /// Arrival time per endpoint, aligned with StaEngine::endpoints().
  std::vector<double> endpoint_arrival;
  /// Worst (largest) endpoint arrival — the circuit delay.
  double worst_delay = 0.0;
};

/// Result of run_block over `count` samples. Reuse one object per thread
/// across blocks: the vectors then keep their allocations.
struct StaBlockResult {
  /// Worst endpoint arrival per sample.
  std::vector<double> worst_delay;
  /// Endpoint-major arrivals: endpoint e of sample i is at e * count + i.
  std::vector<double> endpoint_arrival;
  /// run_block's gate-major working arrays (contents unspecified).
  std::vector<double> work;
};

/// Per-gate internals of one STA evaluation, for consumers that need more
/// than endpoint arrivals (critical-path extraction, the canonical SSTA's
/// nominal linearization point).
struct StaTrace {
  std::vector<double> arrival;      // per gate (output pin)
  std::vector<double> slew;         // per gate (output pin)
  /// Index into gate.fanin of the arc that set the gate's arrival
  /// (SIZE_MAX for startpoints).
  std::vector<std::size_t> worst_arc;
};

/// Precompiled timing view of one placed netlist. Const member functions
/// are safe to call from several threads at once.
class StaEngine {
 public:
  StaEngine(const circuit::Netlist& netlist,
            const placer::Placement& placement, const CellLibrary& library);

  /// Timing endpoints: primary outputs, then flip-flop D pins.
  const std::vector<std::size_t>& endpoints() const {
    return levelization_.endpoints;
  }
  std::size_t num_endpoints() const { return levelization_.endpoints.size(); }

  /// Logic depth (informational).
  std::size_t depth() const { return levelization_.depth; }

  /// Times `count` samples: sample i's value of parameter j at physical
  /// gate c is parameters[j][i * stride + c] (sample-major blocks such as a
  /// sampler's output rows; stride >= the physical gate count when
  /// count > 1). Fills `out.worst_delay` and `out.endpoint_arrival`.
  /// Each sample's bits equal those of run() on its own parameters.
  void run_block(const ParameterView& parameters, std::size_t stride,
                 std::size_t count, StaBlockResult& out) const;

  /// Runs STA on one sample (a block of one). When `trace` is non-null it
  /// receives the per-gate arrivals/slews/worst arcs.
  StaResult run(const ParameterView& parameters,
                StaTrace* trace = nullptr) const;

  /// Runs STA at nominal process (all parameters zero).
  StaResult run_nominal(StaTrace* trace = nullptr) const;

  /// Wire Elmore delay on the arc into fanin k of gate g (precomputed).
  double edge_elmore(std::size_t gate, std::size_t fanin_index) const {
    return arcs_[first_arc_[gate] + fanin_index].wire;
  }

  /// Driver load capacitance of gate g's output net.
  double load_capacitance(std::size_t gate) const { return load_cap_[gate]; }

  /// The characterized cell of gate g (nullptr for pads).
  const TimingCell* cell(std::size_t gate) const { return cell_[gate]; }

  /// Index of gate g within the physical-gate (sampler) ordering, or
  /// SIZE_MAX for pads.
  std::size_t physical_index(std::size_t gate) const {
    return physical_index_[gate];
  }

  const Technology& technology() const { return technology_; }
  const circuit::Levelization& levelization() const { return levelization_; }

  const circuit::Netlist& netlist() const { return netlist_; }

 private:
  /// One fanin pin: the gate that drives it and the wire into it.
  struct Arc {
    std::size_t source = 0;
    double wire = 0.0;          // Elmore delay
    double step_squared = 0.0;  // Bakoglu step slew of the wire, squared
  };

  /// An NLDM table at one gate's load, as a function of input slew.
  struct SlewCurve {
    const std::vector<double>* axis = nullptr;  // the table's slew axis
    std::vector<double> value;                  // one per axis point
  };

  /// What propagation needs of one cell gate beyond its arcs.
  struct CellTiming {
    SlewCurve delay;
    SlewCurve slew;
    bool shared_axis = false;  // both tables have the same slew axis
    double launch_delay = 0.0;  // DFF: the tables at the clock slew
    double launch_slew = 0.0;
  };

  /// Propagates samples [first, first + count) (count <= the chunk size)
  /// into `work` and writes their endpoint results into `out`.
  void run_chunk(const ParameterView& parameters, std::size_t stride,
                 std::size_t first, std::size_t count, std::size_t lanes,
                 std::size_t total, StaBlockResult& out,
                 StaTrace* trace) const;

  /// run_block with an optional trace (count must then be 1).
  void propagate(const ParameterView& parameters, std::size_t stride,
                 std::size_t count, StaBlockResult& out,
                 StaTrace* trace) const;

  const circuit::Netlist& netlist_;
  circuit::Levelization levelization_;
  Technology technology_;

  std::vector<const TimingCell*> cell_;       // per gate; nullptr for pads
  std::vector<double> load_cap_;              // per gate output
  std::vector<std::size_t> physical_index_;   // per gate; npos for pads
  std::vector<std::size_t> first_arc_;        // per gate, into arcs_; + end
  std::vector<Arc> arcs_;                     // every gate's fanins in order
  std::vector<CellTiming> cell_timing_;       // per gate (empty for pads)
  static constexpr std::size_t kNoPhysical = static_cast<std::size_t>(-1);
};

}  // namespace sckl::timing
