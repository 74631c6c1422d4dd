#include "timing/sta.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "timing/rc_tree.h"

namespace sckl::timing {

using circuit::CellFunction;

namespace {

// Samples per gate-major chunk. A chunk's arrays (arrival and slew per gate,
// delay and slew factors per physical gate) take 4 x 8 x kChunk bytes per
// gate: 2.5 MB for c5315 at 32, where a whole 256-sample block would take
// 20 MB. On a 4-vCPU Xeon (2 MB L2 per core) c5315 timed fastest at 32 of
// 8, 16, 32 and 64.
constexpr std::size_t kChunk = 32;

// Lane-by-lane locate(): the segment of x[i] is the number of interior axis
// points below it, which is where locate()'s scan stops (the axis is
// strictly increasing). The count runs in doubles, one pass per axis point,
// so it vectorizes; only the final gathers are scalar.
void locate_lanes(const std::vector<double>& axis, const double* x,
                  std::size_t count, std::size_t* segment, double* t) {
  const std::size_t n = axis.size();
  if (n == 1) {
    std::fill(segment, segment + count, std::size_t{0});
    std::fill(t, t + count, 0.0);
    return;
  }
  std::array<double, kChunk> below;
  std::fill(below.begin(), below.begin() + count, 0.0);
  for (std::size_t m = 1; m + 1 < n; ++m) {
    const double point = axis[m];
    for (std::size_t i = 0; i < count; ++i)
      below[i] += point < x[i] ? 1.0 : 0.0;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t lo = static_cast<std::size_t>(below[i]);
    segment[i] = lo;
    t[i] = (x[i] - axis[lo]) / (axis[lo + 1] - axis[lo]);
  }
}

// Lane by lane, a table column at located slews times a factor: the
// interpolation of NldmTable::lookup (no interpolation on a one-point axis).
void evaluate_lanes(const std::vector<double>& column,
                    const std::size_t* segment, const double* t,
                    const double* factor, std::size_t count, double* out) {
  if (column.size() == 1) {
    for (std::size_t i = 0; i < count; ++i) out[i] = column[0] * factor[i];
    return;
  }
  for (std::size_t i = 0; i < count; ++i)
    out[i] = interpolate(column[segment[i]], column[segment[i] + 1], t[i]) *
             factor[i];
}

}  // namespace

StaEngine::StaEngine(const circuit::Netlist& netlist,
                     const placer::Placement& placement,
                     const CellLibrary& library)
    : netlist_(netlist),
      levelization_(circuit::levelize(netlist)),
      technology_(library.technology()) {
  require(placement.location.size() == netlist.num_gates_total(),
          "StaEngine: placement does not cover the netlist");
  const std::size_t n = netlist.num_gates_total();
  cell_.assign(n, nullptr);
  load_cap_.assign(n, 0.0);
  physical_index_.assign(n, kNoPhysical);

  for (std::size_t c = 0; c < netlist.physical_gates().size(); ++c)
    physical_index_[netlist.physical_gates()[c]] = c;

  for (std::size_t g = 0; g < n; ++g) {
    const circuit::Gate& gate = netlist.gate(g);
    if (gate.function != CellFunction::kInput &&
        gate.function != CellFunction::kOutput)
      cell_[g] = &library.cell_for(gate.function, gate.fanin.size());
  }

  // Wire parasitics, per the selected interconnect model.
  const double r_unit = technology_.wire_resistance_per_unit;
  const double c_unit = technology_.wire_capacitance_per_unit;
  auto pin_cap_of = [this](std::size_t sink) {
    return cell_[sink] != nullptr ? cell_[sink]->input_cap
                                  : technology_.primary_output_cap;
  };

  // Per-sink wire delay, filled below and gathered into edge_elmore_.
  std::vector<std::vector<double>> sink_elmore(n);

  for (std::size_t g = 0; g < n; ++g) {
    const circuit::Gate& gate = netlist.gate(g);
    sink_elmore[g].assign(gate.fanout.size(), 0.0);
    if (gate.fanout.empty()) {
      load_cap_[g] = 0.0;
      continue;
    }
    const geometry::Point2 at = placement.location[g];

    if (technology_.wire_model == WireModel::kStarHpwl) {
      // The paper's model: driver load C = c_unit * HPWL + pin caps; each
      // sink sees an independent segment of its Manhattan length,
      // elmore = R_seg (C_seg/2 + C_pin).
      double min_x = at.x;
      double max_x = at.x;
      double min_y = at.y;
      double max_y = at.y;
      double pin_cap = 0.0;
      for (std::size_t s = 0; s < gate.fanout.size(); ++s) {
        const std::size_t sink = gate.fanout[s];
        const geometry::Point2 q = placement.location[sink];
        min_x = std::min(min_x, q.x);
        max_x = std::max(max_x, q.x);
        min_y = std::min(min_y, q.y);
        max_y = std::max(max_y, q.y);
        pin_cap += pin_cap_of(sink);
        const double length = geometry::manhattan_distance(at, q);
        const double seg_r = r_unit * length;
        const double seg_c = c_unit * length;
        sink_elmore[g][s] = seg_r * (0.5 * seg_c + pin_cap_of(sink));
      }
      const double hpwl = (max_x - min_x) + (max_y - min_y);
      load_cap_[g] = c_unit * hpwl + pin_cap;
    } else {
      // Shared-trunk RC tree: driver -> net center of mass -> sinks, each
      // segment as an RC pi (half the segment cap at each end). Sinks share
      // the trunk's delay, as on a routed net.
      geometry::Point2 center = at;
      for (std::size_t sink : gate.fanout)
        center = center + placement.location[sink];
      center = (1.0 / static_cast<double>(gate.fanout.size() + 1)) * center;

      RcTree tree;
      const double trunk_length = geometry::manhattan_distance(at, center);
      const double trunk_c = c_unit * trunk_length;
      const std::size_t trunk_node =
          tree.add_node(0, r_unit * trunk_length, 0.5 * trunk_c);
      tree.add_capacitance(0, 0.5 * trunk_c);
      std::vector<std::size_t> sink_nodes;
      sink_nodes.reserve(gate.fanout.size());
      for (std::size_t sink : gate.fanout) {
        const double branch_length = geometry::manhattan_distance(
            center, placement.location[sink]);
        const double branch_c = c_unit * branch_length;
        const std::size_t node = tree.add_node(
            trunk_node, r_unit * branch_length,
            0.5 * branch_c + pin_cap_of(sink));
        tree.add_capacitance(trunk_node, 0.5 * branch_c);
        sink_nodes.push_back(node);
      }
      const std::vector<double> delays = tree.elmore_delays();
      for (std::size_t s = 0; s < sink_nodes.size(); ++s)
        sink_elmore[g][s] = delays[sink_nodes[s]];
      load_cap_[g] = tree.total_capacitance();
    }
  }

  // Gather per-sink delays into fanin-indexed arcs. A gate can appear
  // multiple times in a source's fanout (multi-pin connections); consume
  // occurrences in order.
  std::vector<std::size_t> cursor(n, 0);
  first_arc_.assign(n + 1, 0);
  for (std::size_t g = 0; g < n; ++g) {
    const circuit::Gate& gate = netlist.gate(g);
    first_arc_[g] = arcs_.size();
    for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
      const std::size_t source = gate.fanin[k];
      const circuit::Gate& src_gate = netlist.gate(source);
      std::size_t slot = cursor[source]++;
      // Locate this gate among the source's fanout starting at `slot`.
      while (slot < src_gate.fanout.size() && src_gate.fanout[slot] != g)
        ++slot;
      ensure(slot < src_gate.fanout.size(),
             "StaEngine: fanout/fanin inconsistency");
      cursor[source] = slot + 1;
      Arc arc;
      arc.source = source;
      arc.wire = sink_elmore[source][slot];
      const double step = bakoglu_step_slew(arc.wire);
      arc.step_squared = step * step;
      arcs_.push_back(arc);
    }
  }
  first_arc_[n] = arcs_.size();
  for (std::size_t endpoint : levelization_.endpoints)
    ensure(first_arc_[endpoint + 1] > first_arc_[endpoint],
           "StaEngine: endpoint without fanin");

  // Each cell's tables at its gate's fixed load.
  cell_timing_.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    if (cell_[g] == nullptr) continue;
    const TimingCell& cell = *cell_[g];
    CellTiming& timing = cell_timing_[g];
    timing.delay = {&cell.delay.slew_axis(),
                    cell.delay.column_at_load(load_cap_[g])};
    timing.slew = {&cell.output_slew.slew_axis(),
                   cell.output_slew.column_at_load(load_cap_[g])};
    timing.shared_axis =
        cell.delay.slew_axis() == cell.output_slew.slew_axis();
    timing.launch_delay =
        cell.delay.lookup(technology_.clock_slew, load_cap_[g]);
    timing.launch_slew =
        cell.output_slew.lookup(technology_.clock_slew, load_cap_[g]);
  }
}

void StaEngine::run_block(const ParameterView& parameters, std::size_t stride,
                          std::size_t count, StaBlockResult& out) const {
  propagate(parameters, stride, count, out, nullptr);
}

StaResult StaEngine::run(const ParameterView& parameters,
                         StaTrace* trace) const {
  StaBlockResult block;
  propagate(parameters, 0, 1, block, trace);
  StaResult result;
  result.endpoint_arrival = std::move(block.endpoint_arrival);
  result.worst_delay = block.worst_delay[0];
  return result;
}

StaResult StaEngine::run_nominal(StaTrace* trace) const {
  return run(ParameterView{nullptr, nullptr, nullptr, nullptr}, trace);
}

void StaEngine::propagate(const ParameterView& parameters, std::size_t stride,
                          std::size_t count, StaBlockResult& out,
                          StaTrace* trace) const {
  const std::size_t n = netlist_.num_gates_total();
  const std::size_t num_physical = netlist_.num_physical_gates();
  require(count <= 1 || stride >= num_physical,
          "StaEngine::run_block: stride shorter than a parameter row");
  const std::size_t lanes = std::min(count, kChunk);
  out.worst_delay.resize(count);
  out.endpoint_arrival.resize(levelization_.endpoints.size() * count);
  out.work.resize(2 * (n + num_physical) * lanes);
  if (trace != nullptr) {
    trace->arrival.resize(n);
    trace->slew.resize(n);
    trace->worst_arc.assign(n, static_cast<std::size_t>(-1));
  }
  for (std::size_t first = 0; first < count; first += lanes)
    run_chunk(parameters, stride, first, std::min(lanes, count - first),
              lanes, count, out, trace);
}

void StaEngine::run_chunk(const ParameterView& parameters, std::size_t stride,
                          std::size_t first, std::size_t count,
                          std::size_t lanes, std::size_t total,
                          StaBlockResult& out, StaTrace* trace) const {
  // Gate-major arrays: gate g's value for chunk sample i is at g * lanes + i.
  const std::vector<std::size_t>& physical = netlist_.physical_gates();
  const std::size_t n = netlist_.num_gates_total();
  double* const arrival = out.work.data();
  double* const slew = arrival + n * lanes;
  double* const delay_scale = slew + n * lanes;
  double* const slew_scale = delay_scale + physical.size() * lanes;

  // The rank-one quadratic factors, in the samplers' gate order and by
  // tiles of physical gates, so each sample's parameter rows are read front
  // to back and a tile's factors stay in L1.
  constexpr std::size_t kTile = 64;
  for (std::size_t c0 = 0; c0 < physical.size(); c0 += kTile) {
    const std::size_t c1 = std::min(physical.size(), c0 + kTile);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row = (first + i) * stride;
      for (std::size_t c = c0; c < c1; ++c) {
        const TimingCell& cell = *cell_[physical[c]];
        StatVector p{};
        for (std::size_t j = 0; j < kNumStatParameters; ++j)
          p[j] = parameters[j] != nullptr ? parameters[j][row + c] : 0.0;
        delay_scale[c * lanes + i] = cell.delay_sensitivity.factor(p);
        slew_scale[c * lanes + i] = cell.slew_sensitivity.factor(p);
      }
    }
  }

  const double min_slew = technology_.min_slew;
  for (std::size_t g : levelization_.topological_order) {
    double* const a = arrival + g * lanes;
    double* const s = slew + g * lanes;
    const CellFunction function = netlist_.gate(g).function;
    switch (function) {
      case CellFunction::kInput:
        std::fill(a, a + count, 0.0);
        std::fill(s, s + count, technology_.primary_input_slew);
        continue;
      case CellFunction::kOutput:
        // An endpoint: its arrival is read at its input pin below.
        std::fill(a, a + count, 0.0);
        std::fill(s, s + count, min_slew);
        continue;
      default:
        break;
    }
    const CellTiming& timing = cell_timing_[g];
    const double* const df = delay_scale + physical_index_[g] * lanes;
    const double* const sf = slew_scale + physical_index_[g] * lanes;
    if (function == CellFunction::kDff) {
      // Launch: clk -> Q through the sequential cell.
      for (std::size_t i = 0; i < count; ++i) {
        a[i] = timing.launch_delay * df[i];
        s[i] = std::max(min_slew, timing.launch_slew * sf[i]);
      }
      continue;
    }
    // A logic gate: the latest arc sets arrival and slew (the first arc on
    // ties). Each pass below runs over the chunk's samples.
    std::fill(a, a + count, 0.0);
    std::fill(s, s + count, min_slew);
    std::array<std::size_t, kChunk> worst_arc;
    worst_arc.fill(static_cast<std::size_t>(-1));
    std::array<double, kChunk> in_slew, t, delay, out_slew;
    std::array<std::size_t, kChunk> segment;
    for (std::size_t k = first_arc_[g]; k < first_arc_[g + 1]; ++k) {
      const Arc& arc = arcs_[k];
      const double* const a_in = arrival + arc.source * lanes;
      const double* const s_in = slew + arc.source * lanes;
      for (std::size_t i = 0; i < count; ++i)
        in_slew[i] = std::max(
            min_slew, std::sqrt(s_in[i] * s_in[i] + arc.step_squared));
      locate_lanes(*timing.delay.axis, in_slew.data(), count, segment.data(),
                   t.data());
      evaluate_lanes(timing.delay.value, segment.data(), t.data(), df, count,
                     delay.data());
      if (!timing.shared_axis)
        locate_lanes(*timing.slew.axis, in_slew.data(), count,
                     segment.data(), t.data());
      evaluate_lanes(timing.slew.value, segment.data(), t.data(), sf, count,
                     out_slew.data());
      const bool first_arc = k == first_arc_[g];
      const std::size_t fanin = k - first_arc_[g];
      for (std::size_t i = 0; i < count; ++i) {
        const double candidate = (a_in[i] + arc.wire) + delay[i];
        const bool take = first_arc || candidate > a[i];
        a[i] = take ? candidate : a[i];
        s[i] = take ? out_slew[i] : s[i];
        worst_arc[i] = take ? fanin : worst_arc[i];
      }
    }
    for (std::size_t i = 0; i < count; ++i) s[i] = std::max(min_slew, s[i]);
    if (trace != nullptr) trace->worst_arc[g] = worst_arc[0];
  }

  // Endpoint arrival is at the *input* pin: fanin arrival plus its wire.
  double* const worst = out.worst_delay.data() + first;
  std::fill(worst, worst + count, 0.0);
  for (std::size_t e = 0; e < levelization_.endpoints.size(); ++e) {
    const Arc& arc = arcs_[first_arc_[levelization_.endpoints[e]]];
    const double* const a_in = arrival + arc.source * lanes;
    double* const value = out.endpoint_arrival.data() + e * total + first;
    for (std::size_t i = 0; i < count; ++i) {
      value[i] = a_in[i] + arc.wire;
      worst[i] = std::max(worst[i], value[i]);
    }
  }
  if (trace != nullptr) {
    for (std::size_t g = 0; g < n; ++g) {
      trace->arrival[g] = arrival[g * lanes];
      trace->slew[g] = slew[g * lanes];
    }
  }
}

}  // namespace sckl::timing
