#include "trace_fold.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `intervals` clipped to [lo, hi).
std::int64_t covered_ns(std::vector<Interval> intervals, std::int64_t lo,
                        std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const auto& [begin, end] : intervals) {
    const std::int64_t b = std::max(begin, reach);
    const std::int64_t e = std::min(end, hi);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

SpanFold fold_spans(const std::vector<sckl::obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const auto& s : spans)
    if (s.parent != 0)
      children[s.parent].push_back({s.start_ns, s.start_ns + s.wall_ns});

  SpanFold fold;
  for (const auto& s : spans) {
    SpanTotals& t = fold[s.name];
    const std::int64_t end = s.start_ns + s.wall_ns;
    std::int64_t child_ns = 0;
    if (const auto it = children.find(s.id); it != children.end())
      child_ns = covered_ns(it->second, s.start_ns, end);
    t.wall_s += static_cast<double>(s.wall_ns) * 1e-9;
    t.self_s += static_cast<double>(s.wall_ns - child_ns) * 1e-9;
    t.cpu_s += static_cast<double>(s.cpu_ns) * 1e-9;
    ++t.count;
  }
  return fold;
}

double child_coverage(const std::vector<sckl::obs::SpanRecord>& spans,
                      const std::vector<std::uint64_t>& parents) {
  const std::set<std::uint64_t> wanted(parents.begin(), parents.end());
  std::unordered_map<std::uint64_t, Interval> parent_interval;
  std::int64_t parent_ns = 0;
  for (const auto& s : spans)
    if (wanted.count(s.id) != 0) {
      parent_interval[s.id] = {s.start_ns, s.start_ns + s.wall_ns};
      parent_ns += s.wall_ns;
    }
  if (parent_ns <= 0) return 0.0;

  // thread -> parent -> child intervals
  std::map<std::uint32_t, std::map<std::uint64_t, std::vector<Interval>>>
      by_thread;
  for (const auto& s : spans)
    if (parent_interval.count(s.parent) != 0)
      by_thread[s.thread][s.parent].push_back(
          {s.start_ns, s.start_ns + s.wall_ns});
  if (by_thread.empty()) return 0.0;

  double share_sum = 0.0;
  for (const auto& [thread, per_parent] : by_thread) {
    std::int64_t covered = 0;
    for (const auto& [parent, intervals] : per_parent) {
      const Interval& p = parent_interval[parent];
      covered += covered_ns(intervals, p.first, p.second);
    }
    share_sum += static_cast<double>(covered) / static_cast<double>(parent_ns);
  }
  return share_sum / static_cast<double>(by_thread.size());
}

}  // namespace perfbench
