// The timing primitives of the codebase: one wall clock, one thread CPU
// clock.
//
// Formerly common/stopwatch.h; they live in the observability library now
// so raw duration measurement and trace spans (obs/trace.h, which records
// exactly these two clocks) cannot drift apart. Use a Span when the
// measurement should appear in the trace tree; use a Stopwatch or a
// ThreadCpuStopwatch when the caller only needs a number. Stopwatch is
// monotonic wall time (steady_clock, immune to NTP jumps): what a caller
// waited. ThreadCpuStopwatch is the calling thread's CPU time: what a phase
// cost, without the time the thread sat preempted — the per-phase Monte
// Carlo sums (McSstaResult::sampling_seconds, sta_seconds) add it up across
// workers.
#pragma once

#include <chrono>
#include <cstdint>

namespace sckl::obs {

/// Simple monotonic stopwatch; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time consumed by the calling thread, in nanoseconds
/// (CLOCK_THREAD_CPUTIME_ID; 0 where the platform has no such clock).
std::int64_t thread_cpu_ns();

/// Thread CPU-time stopwatch; starts on construction. Read it on the thread
/// that constructed it.
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() : start_ns_(thread_cpu_ns()) {}

  /// CPU seconds this thread has run since construction.
  double seconds() const {
    return static_cast<double>(thread_cpu_ns() - start_ns_) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
};

}  // namespace sckl::obs
