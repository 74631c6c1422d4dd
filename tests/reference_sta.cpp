#include "reference_sta.h"

#include <algorithm>

#include "timing/rc_tree.h"

namespace sckl::timing {
namespace {

double delay_factor(const StaEngine& engine, std::size_t gate,
                    const ParameterView& parameters,
                    const RankOneQuadratic& sensitivity) {
  const std::size_t index = engine.physical_index(gate);
  if (index == static_cast<std::size_t>(-1)) return 1.0;
  StatVector p{};
  for (std::size_t j = 0; j < kNumStatParameters; ++j)
    p[j] = parameters[j] != nullptr ? parameters[j][index] : 0.0;
  return sensitivity.factor(p);
}

}  // namespace

StaResult reference_sta(const StaEngine& engine,
                        const ParameterView& parameters, StaTrace* trace) {
  using circuit::CellFunction;
  const circuit::Netlist& netlist = engine.netlist();
  const Technology& technology = engine.technology();
  const std::size_t n = netlist.num_gates_total();
  std::vector<double> arrival(n, 0.0);
  std::vector<double> slew(n, technology.min_slew);
  std::vector<std::size_t> worst_arc(n, static_cast<std::size_t>(-1));

  for (std::size_t g : engine.levelization().topological_order) {
    const circuit::Gate& gate = netlist.gate(g);
    const double load = engine.load_capacitance(g);
    switch (gate.function) {
      case CellFunction::kInput:
        arrival[g] = 0.0;
        slew[g] = technology.primary_input_slew;
        break;
      case CellFunction::kOutput:
        break;  // endpoint; evaluated below
      case CellFunction::kDff: {
        const TimingCell& cell = *engine.cell(g);
        const double df =
            delay_factor(engine, g, parameters, cell.delay_sensitivity);
        const double sf =
            delay_factor(engine, g, parameters, cell.slew_sensitivity);
        arrival[g] = cell.delay.lookup(technology.clock_slew, load) * df;
        slew[g] = std::max(
            technology.min_slew,
            cell.output_slew.lookup(technology.clock_slew, load) * sf);
        break;
      }
      default: {
        const TimingCell& cell = *engine.cell(g);
        const double df =
            delay_factor(engine, g, parameters, cell.delay_sensitivity);
        const double sf =
            delay_factor(engine, g, parameters, cell.slew_sensitivity);
        double best_arrival = 0.0;
        double best_slew = technology.min_slew;
        for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
          const std::size_t u = gate.fanin[k];
          const double wire = engine.edge_elmore(g, k);
          const double in_arrival = arrival[u] + wire;
          const double in_slew =
              std::max(technology.min_slew, wire_output_slew(slew[u], wire));
          const double d = cell.delay.lookup(in_slew, load) * df;
          const double candidate = in_arrival + d;
          if (k == 0 || candidate > best_arrival) {
            best_arrival = candidate;
            best_slew = cell.output_slew.lookup(in_slew, load) * sf;
            worst_arc[g] = k;
          }
        }
        arrival[g] = best_arrival;
        slew[g] = std::max(technology.min_slew, best_slew);
        break;
      }
    }
  }

  StaResult result;
  for (std::size_t endpoint : engine.endpoints()) {
    // Endpoint arrival is at the *input* pin: fanin arrival plus its wire.
    const std::size_t u = netlist.gate(endpoint).fanin[0];
    const double value = arrival[u] + engine.edge_elmore(endpoint, 0);
    result.endpoint_arrival.push_back(value);
    result.worst_delay = std::max(result.worst_delay, value);
  }
  if (trace != nullptr) {
    trace->arrival = std::move(arrival);
    trace->slew = std::move(slew);
    trace->worst_arc = std::move(worst_arc);
  }
  return result;
}

}  // namespace sckl::timing
