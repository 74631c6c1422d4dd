// Self-tests of the benchmark's own logic at smoke size: percentiles keep
// ten samples beyond them, open-loop latency is timed from the scheduled
// send, and span folding returns self time. Exit code 0 when all pass.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "load_gen.h"
#include "obs/trace.h"
#include "trace_fold.h"

namespace {

using namespace perfbench;
using sckl::obs::SpanRecord;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = highest_supported_percentile(v);
  expect(p99.p == 99.0 && p99.value == 990.0 && p99.beyond == 10,
         "p99 of 1000 samples is 990 with 10 samples beyond it");
  v.pop_back();
  const Percentile q = highest_supported_percentile(v);
  expect(q.p == 95.0 && q.beyond >= 10,
         "999 samples cannot support p99; p95 is reported instead");
  for (std::size_t n : {11u, 57u, 200u, 1500u, 20000u}) {
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i) w[i] = static_cast<double>(i);
    const Percentile r = highest_supported_percentile(w);
    char p[16];
    std::snprintf(p, sizeof p, "%g", r.p);
    expect(r.p == 50.0 || r.beyond >= 10,
           "n = " + std::to_string(n) + ": reports p" + p +
               " (the median, or a tail with >= 10 samples beyond it)");
  }
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
}

void test_open_loop_stall() {
  // Two connections, composed as serve_sample composes them: each runs its
  // open-loop share, then the closed loop. The fake server answers in 1 ms
  // but stalls 300 ms on open-loop request 5 (connection 1) and on
  // closed-loop request 5.
  constexpr std::size_t kConnections = 2;
  constexpr std::size_t kOpen = 40;  // 100 requests/s: due every 10 ms
  const IssueFn fake = [](std::size_t, std::size_t i) {
    const bool stall = i == 5 || i == kOpen + 5;
    std::this_thread::sleep_for(std::chrono::milliseconds(stall ? 300 : 1));
    return true;
  };
  const IssueFn closed_fake = [&](std::size_t c, std::size_t i) {
    return fake(c, kOpen + i);
  };
  sckl::obs::trace_reset();
  sckl::obs::trace_enable(true);
  sckl::obs::Span marker("selftest.marker");
  const std::uint64_t marker_id = marker.id();
  const TraceParentFn parent = [&] { return marker_id; };
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto closed_start = start + std::chrono::milliseconds(800);
  const auto end = closed_start + std::chrono::milliseconds(500);
  std::vector<std::vector<RequestRecord>> closed_per(kConnections);
  const std::vector<RequestRecord> records =
      on_connections(kConnections, [&](std::size_t c) {
        std::vector<RequestRecord> open = open_loop_connection(
            c, kConnections, 100.0, kOpen, start, fake, parent);
        closed_per[c] = closed_loop_connection(c, kConnections, closed_start,
                                               end, closed_fake, parent);
        return open;
      });
  sckl::obs::trace_enable(false);
  expect(records.size() == kOpen, "open loop issued every scheduled request");
  // Request 7 was due 20 ms after request 5 on the same connection but
  // could only go out once the stall ended: its latency carries the wait,
  // though its service was 1 ms. Request 6, on the other connection, did
  // not wait.
  expect(records[7].latency_ms() > 200.0,
         "a request queued behind a stall reports the stall (" +
             std::to_string(records[7].latency_ms()) + " ms)");
  expect(records[7].lag_ms() > 200.0,
         "the generator lag shows the stall (" +
             std::to_string(records[7].lag_ms()) + " ms)");
  expect(records[6].latency_ms() < 50.0,
         "the other connection does not see the stall (" +
             std::to_string(records[6].latency_ms()) + " ms)");
  double lag = 0.0;
  for (const auto& r : records) lag += r.lag_ms();
  expect(lag / kOpen > 20.0, "mean generator lag rises (" +
                                 std::to_string(lag / kOpen) + " ms)");
  expect(records[kOpen - 1].latency_ms() < 50.0,
         "the generator catches up after the stall");
  // A closed loop hides the same stall from every later request.
  const std::vector<RequestRecord>& closed = closed_per[1];
  expect(closed.size() > 4 && closed[2].index == 5 &&
             closed[2].latency_ms() > 200.0 && closed[3].latency_ms() < 50.0,
         "closed-loop latency is timed from the actual send");
  std::size_t waits = 0;
  bool parented = true;
  for (const SpanRecord& s : sckl::obs::trace_snapshot())
    if (std::string(s.name) == "bench.schedule_wait") {
      ++waits;
      parented = parented && s.parent == marker_id;
    }
  expect(waits > 0 && parented,
         "schedule waits are traced under the connection's parent span");
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, const char* name,
                std::uint32_t thread, std::int64_t start, std::int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.thread = thread;
  s.start_ns = start;
  s.wall_ns = end - start;
  return s;
}

void test_span_folding() {
  // outer [0,100) with children [10,40) and [30,60) overlapping (union 50)
  // and [90,120) reaching past its end (10 inside): self time is 40.
  const std::vector<SpanRecord> spans = {
      span(1, 0, "outer", 0, 0, 100),   span(2, 1, "child", 0, 10, 40),
      span(3, 1, "child", 1, 30, 60),   span(4, 1, "child", 1, 90, 120),
      span(5, 2, "grandchild", 0, 15, 25)};
  const SpanFold fold = fold_spans(spans);
  const double ns = 1e-9;
  expect(std::abs(fold.at("outer").self_s - 40 * ns) < 1e-15,
         "self time subtracts the union of child intervals, clipped");
  expect(std::abs(fold.at("child").wall_s - 90 * ns) < 1e-15 &&
             std::abs(fold.at("child").self_s - 80 * ns) < 1e-15,
         "self time of a span with a grandchild");
  expect(fold.at("child").count == 3, "spans fold by name");
  // Thread 0 covers [10,40) = 30%, thread 1 covers [30,60)+[90,100) = 40%.
  expect(std::abs(child_coverage(spans, {1}) - 0.35) < 1e-12,
         "coverage is averaged over the threads children ran on");

  // The same on live spans.
  sckl::obs::trace_reset();
  sckl::obs::trace_enable(true);
  {
    sckl::obs::Span outer("live.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sckl::obs::Span inner("live.inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  sckl::obs::trace_enable(false);
  const SpanFold live = fold_spans(sckl::obs::trace_snapshot());
  const double self = live.at("live.outer").self_s;
  expect(self > 0.015 && self < live.at("live.outer").wall_s - 0.025,
         "live span self time excludes its child (" + std::to_string(self) +
             " s)");
}

}  // namespace

int main() {
  test_percentiles();
  test_open_loop_stall();
  test_span_folding();
  std::printf("%s\n", failures == 0 ? "all self-tests passed"
                                    : "self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
