// Request generators for the serving workload: an open loop that sends on
// a fixed schedule and a closed loop that sends as soon as the previous
// reply arrives. Each connection runs on its own thread and issues its
// requests synchronously, as serve::Client does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Timeline of one request, in seconds after the generator's start.
struct RequestRecord {
  std::size_t index = 0;
  std::size_t connection = 0;
  double due_s = 0.0;   // when the schedule wanted it sent
  double sent_s = 0.0;  // when its connection was free to send it
  double done_s = 0.0;  // when the reply (or error) arrived
  bool ok = false;

  /// Latency as a user sees it: from the scheduled send, so a stall also
  /// delays every request queued behind it.
  double latency_ms() const { return (done_s - due_s) * 1e3; }
  /// How late the generator sent the request.
  double lag_ms() const { return (sent_s - due_s) * 1e3; }
};

/// Performs request `index` on connection `connection` synchronously;
/// returns false when the request failed.
using IssueFn = std::function<bool(std::size_t connection, std::size_t index)>;

/// Returns the span id a connection thread parents its spans under
/// (0 = not traced right now).
using TraceParentFn = std::function<std::uint64_t()>;

/// Open-loop share of connection `c`: request i (i = c, c + connections,
/// ... < count) is due at start + i / rate and goes out once the
/// connection is free. Waiting for the schedule is traced as
/// "bench.schedule_wait".
std::vector<RequestRecord> open_loop_connection(
    std::size_t c, std::size_t connections, double rate, std::size_t count,
    Clock::time_point start, const IssueFn& issue,
    const TraceParentFn& parent = {});

/// Closed-loop share of connection `c`: after waiting for `start`, it
/// sends indices c, c + connections, ... each as soon as the previous
/// reply arrives, until `end`. Times are relative to `start`.
std::vector<RequestRecord> closed_loop_connection(
    std::size_t c, std::size_t connections, Clock::time_point start,
    Clock::time_point end, const IssueFn& issue,
    const TraceParentFn& parent = {});

/// Runs `body(c)` on one thread per connection and returns the records
/// they produce, ordered by request index.
std::vector<RequestRecord> on_connections(
    std::size_t connections,
    const std::function<std::vector<RequestRecord>(std::size_t)>& body);

}  // namespace perfbench
