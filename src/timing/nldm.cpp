#include "timing/nldm.h"

#include "common/error.h"

namespace sckl::timing {

NldmTable::NldmTable(std::vector<double> slew_axis,
                     std::vector<double> load_axis,
                     std::vector<std::vector<double>> values)
    : slew_axis_(std::move(slew_axis)),
      load_axis_(std::move(load_axis)),
      values_(std::move(values)) {
  require(!slew_axis_.empty() && !load_axis_.empty(),
          "NldmTable: empty axis");
  for (std::size_t i = 1; i < slew_axis_.size(); ++i)
    require(slew_axis_[i] > slew_axis_[i - 1],
            "NldmTable: slew axis not increasing");
  for (std::size_t i = 1; i < load_axis_.size(); ++i)
    require(load_axis_[i] > load_axis_[i - 1],
            "NldmTable: load axis not increasing");
  require(values_.size() == slew_axis_.size(), "NldmTable: bad row count");
  for (const auto& row : values_)
    require(row.size() == load_axis_.size(), "NldmTable: bad column count");
}

double NldmTable::row_at_load(std::size_t i, const AxisPoint& at) const {
  if (load_axis_.size() == 1) return values_[i][0];
  return interpolate(values_[i][at.segment], values_[i][at.segment + 1],
                     at.t);
}

std::vector<double> NldmTable::column_at_load(double load) const {
  require(!values_.empty(), "NldmTable::column_at_load: empty table");
  const AxisPoint at = locate(load_axis_, load);
  std::vector<double> column(slew_axis_.size());
  for (std::size_t i = 0; i < column.size(); ++i)
    column[i] = row_at_load(i, at);
  return column;
}

double NldmTable::lookup(double input_slew, double load) const {
  require(!values_.empty(), "NldmTable::lookup: empty table");
  const AxisPoint at = locate(load_axis_, load);
  if (slew_axis_.size() == 1) return row_at_load(0, at);
  const AxisPoint s = locate(slew_axis_, input_slew);
  return interpolate(row_at_load(s.segment, at),
                     row_at_load(s.segment + 1, at), s.t);
}

}  // namespace sckl::timing
