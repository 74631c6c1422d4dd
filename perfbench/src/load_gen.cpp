#include "load_gen.h"

#include <algorithm>
#include <thread>

#include "obs/trace.h"

namespace perfbench {
namespace {

/// Issues one request, turning an escaped exception into a failure so a
/// connection thread never dies with one in flight.
bool issue_safely(const IssueFn& issue, std::size_t connection,
                  std::size_t index) {
  try {
    return issue(connection, index);
  } catch (...) {
    return false;
  }
}

/// Sleeps until `until`, inside a "bench.schedule_wait" span when traced.
void wait_until(Clock::time_point until, const TraceParentFn& parent) {
  if (Clock::now() >= until) return;
  const std::uint64_t parent_id = parent ? parent() : 0;
  if (parent_id == 0) {
    std::this_thread::sleep_until(until);
    return;
  }
  sckl::obs::Span wait("bench.schedule_wait", parent_id);
  std::this_thread::sleep_until(until);
}

}  // namespace

std::vector<RequestRecord> open_loop_connection(
    std::size_t c, std::size_t connections, double rate, std::size_t count,
    Clock::time_point start, const IssueFn& issue,
    const TraceParentFn& parent) {
  std::vector<RequestRecord> records;
  for (std::size_t i = c; i < count; i += connections) {
    RequestRecord r;
    r.index = i;
    r.connection = c;
    r.due_s = static_cast<double>(i) / rate;
    wait_until(start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(r.due_s)),
               parent);
    r.sent_s = seconds_between(start, Clock::now());
    r.ok = issue_safely(issue, c, i);
    r.done_s = seconds_between(start, Clock::now());
    records.push_back(r);
  }
  return records;
}

std::vector<RequestRecord> closed_loop_connection(
    std::size_t c, std::size_t connections, Clock::time_point start,
    Clock::time_point end, const IssueFn& issue,
    const TraceParentFn& parent) {
  wait_until(start, parent);
  std::vector<RequestRecord> records;
  for (std::size_t i = c; Clock::now() < end; i += connections) {
    RequestRecord r;
    r.index = i;
    r.connection = c;
    r.due_s = r.sent_s = seconds_between(start, Clock::now());
    r.ok = issue_safely(issue, c, i);
    r.done_s = seconds_between(start, Clock::now());
    records.push_back(r);
  }
  return records;
}

std::vector<RequestRecord> on_connections(
    std::size_t connections,
    const std::function<std::vector<RequestRecord>(std::size_t)>& body) {
  std::vector<std::vector<RequestRecord>> per(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c)
    threads.emplace_back([&, c] { per[c] = body(c); });
  for (std::thread& t : threads) t.join();
  std::vector<RequestRecord> all;
  for (auto& records : per)
    all.insert(all.end(), records.begin(), records.end());
  std::sort(all.begin(), all.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.index < b.index;
            });
  return all;
}

}  // namespace perfbench
