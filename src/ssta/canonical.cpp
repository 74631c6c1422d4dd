#include "ssta/canonical.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "obs/stopwatch.h"
#include "timing/rc_tree.h"

namespace sckl::ssta {

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_pdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * 3.14159265358979323846);
}

CanonicalForm::CanonicalForm(double mean, linalg::Vector sensitivity,
                             double independent)
    : mean_(mean),
      sensitivity_(std::move(sensitivity)),
      independent_(independent) {
  require(independent_ >= 0.0,
          "CanonicalForm: negative independent sigma (" +
              std::to_string(independent_) + ", mean " +
              std::to_string(mean_) + ")");
}

CanonicalForm CanonicalForm::constant(double value, std::size_t basis_size) {
  return CanonicalForm(value, linalg::Vector(basis_size, 0.0), 0.0);
}

double CanonicalForm::variance() const {
  double sum = independent_ * independent_;
  for (double s : sensitivity_) sum += s * s;
  return sum;
}

double CanonicalForm::sigma() const { return std::sqrt(variance()); }

CanonicalForm CanonicalForm::scaled_by(double k) const {
  linalg::Vector s = sensitivity_;
  for (auto& v : s) v *= k;
  return CanonicalForm(mean_ * k, std::move(s),
                       independent_ * std::abs(k));
}

CanonicalForm& CanonicalForm::operator+=(const CanonicalForm& other) {
  require(sensitivity_.size() == other.sensitivity_.size(),
          "CanonicalForm::operator+=: basis mismatch");
  mean_ += other.mean_;
  for (std::size_t i = 0; i < sensitivity_.size(); ++i)
    sensitivity_[i] += other.sensitivity_[i];
  independent_ = std::hypot(independent_, other.independent_);
  return *this;
}

double CanonicalForm::covariance(const CanonicalForm& x,
                                 const CanonicalForm& y) {
  require(x.sensitivity_.size() == y.sensitivity_.size(),
          "CanonicalForm::covariance: basis mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < x.sensitivity_.size(); ++i)
    sum += x.sensitivity_[i] * y.sensitivity_[i];
  return sum;  // independent parts are uncorrelated with everything
}

CanonicalForm CanonicalForm::maximum(const CanonicalForm& x,
                                     const CanonicalForm& y) {
  const double vx = x.variance();
  const double vy = y.variance();
  const double cov = covariance(x, y);
  const double theta2 = std::max(vx + vy - 2.0 * cov, 0.0);
  const double theta = std::sqrt(theta2);

  // Degenerate case: the two forms are (nearly) perfectly tracking; the max
  // is just the one with the larger mean.
  if (theta < 1e-12 * (std::sqrt(vx) + std::sqrt(vy) + 1e-300))
    return x.mean_ >= y.mean_ ? x : y;

  const double alpha = (x.mean_ - y.mean_) / theta;
  const double p = normal_cdf(alpha);       // tightness of x
  const double phi = normal_pdf(alpha);

  const double mean_max =
      x.mean_ * p + y.mean_ * (1.0 - p) + theta * phi;
  const double second_moment =
      (x.mean_ * x.mean_ + vx) * p + (y.mean_ * y.mean_ + vy) * (1.0 - p) +
      (x.mean_ + y.mean_) * theta * phi;
  const double var_max = std::max(second_moment - mean_max * mean_max, 0.0);

  // Tightness-blended sensitivities (Visweswariah), independent part sized
  // so the total variance matches Clark's.
  linalg::Vector s(x.sensitivity_.size());
  double shared = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = p * x.sensitivity_[i] + (1.0 - p) * y.sensitivity_[i];
    shared += s[i] * s[i];
  }
  const double independent = std::sqrt(std::max(var_max - shared, 0.0));
  return CanonicalForm(mean_max, std::move(s), independent);
}

namespace {

using circuit::CellFunction;

// Builds the canonical form of one gate's arc delay: nominal value scaled
// by the linearized rank-one quadratic factor.
//
//   factor(p) = 1 + b^T p + gamma (v^T p)^2
//   E[factor] = 1 + gamma * Var(v^T p)          (p zero-mean normal)
//   dfactor/dxi_i = b_j * G_j^T(i, gate)        (first order)
//   Var of the quadratic term = 2 gamma^2 Var(v^T p)^2 -> independent part.
//
// Var(v^T p) uses the per-gate reconstruction variance of each parameter,
// sum_i G_j^T(i, gate)^2 (exact under the truncated KLE).
CanonicalForm arc_delay_form(double nominal, std::size_t physical_gate,
                             const timing::RankOneQuadratic& sens,
                             const ParameterOperators& operators,
                             std::size_t basis_size) {
  linalg::Vector s(basis_size, 0.0);
  std::size_t offset = 0;
  double var_vp = 0.0;
  for (std::size_t j = 0; j < timing::kNumStatParameters; ++j) {
    const linalg::Matrix& g_t = *operators[j];
    const double b = sens.linear[j];
    const double v = sens.direction[j];
    double param_variance = 0.0;
    for (std::size_t i = 0; i < g_t.rows(); ++i) {
      const double entry = g_t(i, physical_gate);
      s[offset + i] = nominal * b * entry;
      param_variance += entry * entry;
    }
    var_vp += v * v * param_variance;
    offset += g_t.rows();
  }
  // Parameters are mutually independent, so Var(v^T p) adds per parameter.
  const double mean = nominal * (1.0 + sens.quadratic * var_vp);
  const double independent =
      nominal * sens.quadratic * std::sqrt(2.0) * var_vp;
  return CanonicalForm(mean, std::move(s), independent);
}

}  // namespace

CanonicalSstaResult run_canonical_ssta(const timing::StaEngine& engine,
                                       const ParameterOperators& operators) {
  const circuit::Netlist& netlist = engine.netlist();
  const std::size_t num_physical = netlist.num_physical_gates();
  std::size_t basis_size = 0;
  for (const auto* op : operators) {
    require(op != nullptr, "run_canonical_ssta: missing operator");
    require(op->cols() == num_physical,
            "run_canonical_ssta: operator gate count mismatch");
    basis_size += op->rows();
  }

  obs::Stopwatch timer;
  // Linearization point: the nominal corner.
  timing::StaTrace nominal;
  engine.run_nominal(&nominal);

  const auto& technology = engine.technology();
  const std::size_t n = netlist.num_gates_total();
  std::vector<CanonicalForm> arrival(
      n, CanonicalForm::constant(0.0, basis_size));
  // Slew deviation per gate output: a zero-nominal canonical form holding
  // the variation of the output slew around nominal.slew[g].
  std::vector<CanonicalForm> slew_dev(
      n, CanonicalForm::constant(0.0, basis_size));

  // Relative finite-difference step for the NLDM slew derivatives.
  constexpr double kFdStep = 0.05;

  for (std::size_t g : engine.levelization().topological_order) {
    const circuit::Gate& gate = netlist.gate(g);
    switch (gate.function) {
      case CellFunction::kInput:
        arrival[g] = CanonicalForm::constant(0.0, basis_size);
        break;
      case CellFunction::kOutput:
        break;
      case CellFunction::kDff: {
        const timing::TimingCell& cell = *engine.cell(g);
        const double load = engine.load_capacitance(g);
        const double d0 = cell.delay.lookup(technology.clock_slew, load);
        arrival[g] = arc_delay_form(d0, engine.physical_index(g),
                                    cell.delay_sensitivity, operators,
                                    basis_size);
        // Output slew varies with the cell's own parameters only (the
        // clock edge is deterministic).
        const double s0 = cell.output_slew.lookup(technology.clock_slew, load);
        CanonicalForm s = arc_delay_form(s0, engine.physical_index(g),
                                         cell.slew_sensitivity, operators,
                                         basis_size);
        s.shift(-s0);
        slew_dev[g] = s;
        break;
      }
      default: {
        const timing::TimingCell& cell = *engine.cell(g);
        const double load = engine.load_capacitance(g);
        CanonicalForm best;
        for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
          const std::size_t u = gate.fanin[k];
          const double wire = engine.edge_elmore(g, k);
          const double upstream_slew = nominal.slew[u];
          const double in_slew0 = std::max(
              technology.min_slew,
              timing::wire_output_slew(upstream_slew, wire));
          // Wire slew chain: d(out)/d(in) of sqrt(in^2 + step^2).
          const double wire_gain =
              in_slew0 > 0.0 ? upstream_slew / in_slew0 : 1.0;
          const CanonicalForm in_slew_dev =
              slew_dev[u].scaled_by(wire_gain);

          // Clamp like the Monte Carlo engine does (its slews are floored
          // at min_slew): lookups outside the characterized grid must never
          // yield non-physical negative values.
          const double d0 =
              std::max(cell.delay.lookup(in_slew0, load), 0.0);
          const double dstep = std::max(kFdStep * in_slew0, 0.5);
          const double ddelay_dslew =
              (std::max(cell.delay.lookup(in_slew0 + dstep, load), 0.0) -
               d0) /
              dstep;

          CanonicalForm candidate = arrival[u];
          candidate.shift(wire);
          candidate += arc_delay_form(d0, engine.physical_index(g),
                                      cell.delay_sensitivity, operators,
                                      basis_size);
          candidate += in_slew_dev.scaled_by(ddelay_dslew);
          if (k == nominal.worst_arc[g] || gate.fanin.size() == 1) {
            // Output slew deviation along the nominal worst arc: the
            // cell's own variation plus the input-slew feed-through.
            const double s0 = std::max(
                cell.output_slew.lookup(in_slew0, load), technology.min_slew);
            const double dslew_dslew =
                (std::max(cell.output_slew.lookup(in_slew0 + dstep, load),
                          technology.min_slew) -
                 s0) /
                dstep;
            CanonicalForm s = arc_delay_form(s0, engine.physical_index(g),
                                             cell.slew_sensitivity,
                                             operators, basis_size);
            s.shift(-s0);
            s += in_slew_dev.scaled_by(dslew_dslew);
            slew_dev[g] = s;
          }
          best = (k == 0) ? candidate
                          : CanonicalForm::maximum(best, candidate);
        }
        arrival[g] = best;
        break;
      }
    }
  }

  CanonicalSstaResult result;
  result.endpoint.reserve(engine.num_endpoints());
  bool first = true;
  for (std::size_t endpoint : engine.endpoints()) {
    const circuit::Gate& gate = netlist.gate(endpoint);
    CanonicalForm value = arrival[gate.fanin[0]];
    value.shift(engine.edge_elmore(endpoint, 0));
    result.endpoint.push_back(value);
    result.worst_delay = first
                             ? value
                             : CanonicalForm::maximum(result.worst_delay,
                                                      value);
    first = false;
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace sckl::ssta
