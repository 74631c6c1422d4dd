// Folding of obs span records into per-name totals with self time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Totals of all spans sharing one name.
struct SpanTotals {
  double wall_s = 0.0;
  /// Wall time minus the part of each span's interval that its child
  /// spans cover (the union of the children's intervals, clipped to it).
  double self_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t count = 0;
};

using SpanFold = std::map<std::string, SpanTotals>;

/// Folds `spans` by name. Children are found through the parent ids, so
/// spans a pool worker parents explicitly under a dispatching span count
/// as that span's children.
SpanFold fold_spans(const std::vector<sckl::obs::SpanRecord>& spans);

/// Share (0..1) of the wall time of the spans in `parents` covered by
/// their direct children, computed per thread the children ran on and
/// averaged over those threads. 0 when the parents have no wall time.
double child_coverage(const std::vector<sckl::obs::SpanRecord>& spans,
                      const std::vector<std::uint64_t>& parents);

}  // namespace perfbench
