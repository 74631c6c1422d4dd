// NLDM-style two-dimensional timing tables.
//
// Gate delay and output slew are table lookups over (input slew, output
// load), the standard non-linear delay model of Liberty-characterized
// libraries. Lookups bilinearly interpolate inside the characterized grid
// and linearly extrapolate at the edges (clamped axes), matching common STA
// practice.
//
// A lookup interpolates along the load axis first, then along the slew
// axis. The STA engine relies on that split: a gate's load is fixed, so it
// interpolates each table along the load axis once (column_at_load) and per
// sample only locates the input slew and applies interpolate() once more.
// Both paths use the one formula below, so they give the same bits.
#pragma once

#include <cstddef>
#include <vector>

namespace sckl::timing {

/// The position of x on a strictly increasing axis: the segment
/// [axis[segment], axis[segment + 1]] that contains x (the end segment
/// nearest to x when x lies outside the axis) and the interpolation
/// parameter t within it, which leaves [0, 1] when x extrapolates. A
/// one-point axis gives segment 0 and t = 0.
struct AxisPoint {
  std::size_t segment = 0;
  double t = 0.0;
};

/// Locates x on `axis` (non-empty, strictly increasing). Inline: the STA
/// engine calls it once per arc and sample.
inline AxisPoint locate(const std::vector<double>& axis, double x) {
  const std::size_t n = axis.size();
  if (n == 1) return {0, 0.0};
  std::size_t hi = 1;
  while (hi + 1 < n && axis[hi] < x) ++hi;
  const std::size_t lo = hi - 1;
  return {lo, (x - axis[lo]) / (axis[hi] - axis[lo])};
}

/// The table's one interpolation formula: lo (1 - t) + hi t.
inline double interpolate(double lo, double hi, double t) {
  return lo * (1.0 - t) + hi * t;
}

/// Monotone axis + value grid; values[i][j] corresponds to
/// (slew_axis[i], load_axis[j]).
class NldmTable {
 public:
  NldmTable() = default;

  /// Builds a table. Axes must be strictly increasing and the value grid
  /// must be slew_axis.size() x load_axis.size().
  NldmTable(std::vector<double> slew_axis, std::vector<double> load_axis,
            std::vector<std::vector<double>> values);

  /// Bilinear interpolation with edge extrapolation: column_at_load(load)
  /// interpolated along the slew axis at `input_slew`.
  double lookup(double input_slew, double load) const;

  /// The table interpolated along the load axis at `load`: one value per
  /// slew-axis point.
  std::vector<double> column_at_load(double load) const;

  const std::vector<double>& slew_axis() const { return slew_axis_; }
  const std::vector<double>& load_axis() const { return load_axis_; }

 private:
  /// Row i of the grid interpolated at the located load `at`.
  double row_at_load(std::size_t i, const AxisPoint& at) const;

  std::vector<double> slew_axis_;
  std::vector<double> load_axis_;
  std::vector<std::vector<double>> values_;
};

}  // namespace sckl::timing
