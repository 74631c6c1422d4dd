// Shared pieces of the sckl benchmark: the metric vocabulary, the tally of
// attempted and failed operations, order statistics, run context, and the
// tracer that toggles obs spans around units of work in the traced run.
//
// Every workload reports the same end-to-end metrics (setup_s,
// peak_rss_mib, op_ms, ops_per_s) for its own unit of work, and in the
// traced run the same list of per-layer metrics; a layer a workload never
// calls reads 0 there. See perfbench/README.md for the unit of each
// workload and the layer each per-layer metric belongs to.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point start;  // process start: the first set-up is timed from it
};

/// Worker threads every workload pins (explicit num_threads and
/// SCKL_THREADS): server workers plus client connections stay within the
/// 4 hardware threads of the reference host.
constexpr std::size_t kThreads = 2;

/// Name and unit of one reported metric.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (BENCHMARK.json order).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, printed by every traced run (BENCHMARK.json order).
const std::vector<MetricSpec>& per_layer_metrics();

/// Attempted and failed operations of one run. Every output check counts
/// as one operation, so a failed check is a failed operation.
class Tally {
 public:
  /// Records one operation or check; a failure is logged to stderr.
  void record(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median of `values` (0 for an empty list).
double median(std::vector<double> values);

/// A percentile together with the sample count it was read from.
struct Percentile {
  double p = 0.0;      // percent, e.g. 99.0
  double value = 0.0;  // nearest-rank value
  std::size_t beyond = 0;  // samples strictly ranked above it
};

/// Nearest-rank p-th percentile of `sorted` (ascending); 0 when empty.
Percentile percentile(const std::vector<double>& sorted, double p);

/// The highest of `candidates` (descending, percent) that still has at
/// least `min_beyond` samples ranked beyond it; p = 50 when none does.
Percentile highest_supported_percentile(
    const std::vector<double>& sorted,
    const std::vector<double>& candidates = {99.9, 99.0, 95.0, 90.0},
    std::size_t min_beyond = 10);

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// Cumulative CPU jiffies from the aggregate line of /proc/stat.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuJiffies read_cpu_jiffies();
/// Share of CPU time the hypervisor stole between two readings, percent.
double steal_percent(const CpuJiffies& before, const CpuJiffies& after);

/// JSON fields (no braces) describing the machine and run context:
/// worker threads, SCKL_THREADS, hardware threads, SIMD target, governor
/// and load average.
std::string run_context_json();

/// Escapes a string for a JSON string literal (without the quotes).
std::string json_escape(const std::string& s);

/// Formats a double with all significant digits for JSON.
std::string json_number(double v);

/// sckl.* metrics registry values: counters by name, histograms as
/// "<name>.count" and "<name>.sum", gauges by name.
std::map<std::string, double> registry_values();

/// Traced-run bookkeeping. Units of work run either untraced or inside a
/// traced period; a period enables obs tracing, opens a marker span that
/// the benchmark's own spans nest under, and accumulates the sckl.*
/// registry deltas over the period. Set-up is traced as its own period.
/// With tracing off for the run, no period ever opens.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a traced period for one set-up ("bench.setup") or one unit of
  /// measured work ("bench.traced"). Periods do not nest.
  void begin(bool setup);
  /// Closes the open period (no-op when none is open).
  void end();

  /// Id of the open period's marker span (0 outside periods), for threads
  /// that parent their spans explicitly. Safe to read from any thread.
  std::uint64_t marker_id() const {
    return marker_id_.load(std::memory_order_acquire);
  }

  /// Whether unit `k` of a traced run runs traced: units alternate
  /// untraced/traced, so the trace overhead is measured inside the run.
  bool traces_unit(std::size_t k) const { return enabled_ && k % 2 == 1; }

  /// Records the wall time of unit `k`, traced or not.
  void record_unit(std::size_t k, double seconds);

  /// Counts `n` operations (as op_ms counts them) done in traced units;
  /// per-layer values are normalised by their total.
  void add_ops(std::size_t n);
  std::size_t traced_ops() const { return traced_ops_; }
  /// Percent by which a traced unit is slower than an untraced one
  /// (median against median); 0 without both kinds of unit.
  double overhead_percent() const;

  /// Collects the recorded spans after the last period (idempotent).
  void finish();

  /// Spans that started inside set-up (or unit) periods.
  const std::vector<sckl::obs::SpanRecord>& setup_spans() const {
    return setup_spans_;
  }
  const std::vector<sckl::obs::SpanRecord>& unit_spans() const {
    return unit_spans_;
  }
  /// Registry deltas summed over the set-up (or unit) periods.
  const std::map<std::string, double>& setup_registry() const {
    return setup_registry_;
  }
  const std::map<std::string, double>& unit_registry() const {
    return unit_registry_;
  }
  /// Share of the unit periods' wall time covered by spans the benchmark
  /// opened around its calls, averaged over the threads they ran on.
  double coverage_percent() const;

 private:
  bool enabled_;
  bool open_ = false;
  bool finished_ = false;
  bool open_is_setup_ = false;
  std::unique_ptr<sckl::obs::Span> marker_;
  std::atomic<std::uint64_t> marker_id_{0};
  std::map<std::string, double> before_;
  std::map<std::string, double> setup_registry_;
  std::map<std::string, double> unit_registry_;
  std::vector<std::uint64_t> setup_markers_;
  std::vector<std::uint64_t> unit_markers_;
  std::size_t traced_ops_ = 0;
  std::vector<double> traced_;
  std::vector<double> untraced_;
  std::vector<sckl::obs::SpanRecord> setup_spans_;
  std::vector<sckl::obs::SpanRecord> unit_spans_;
};

/// Per-layer values of one traced run, by metric name.
using LayerValues = std::map<std::string, double>;

/// Fills the per-layer metrics that come straight from spans and sckl.*
/// counters of a finished tracer: each is its total over the traced units divided by the number
/// of traced units or, for a layer only set-up calls, its total over the
/// traced set-up. Also fills obs.* from the tracer.
void add_traced_layers(const Tracer& tracer, LayerValues& layers);

/// What a workload hands back to main().
struct WorkloadResult {
  double setup_s = 0.0;    // median over the run's set-ups
  double op_ms = 0.0;      // median wall time of one unit of work
  double ops_per_s = 0.0;  // units of work completed per measured second
  std::size_t units = 0;   // units op_ms was read from
  std::string unit;        // what one unit of work is
  LayerValues layers;      // traced run only
  /// Facts about the inputs and computed work, as JSON fields (no braces).
  std::vector<std::string> facts;
};

/// Adds a numeric fact to `result.facts`.
void add_fact(WorkloadResult& result, const std::string& name, double value);

/// Times `setups` repetitions of `setup()` and returns the median; the
/// first repetition is timed from process start (args.start). Before each
/// later repetition, `release()` tears the previous set-up down outside
/// the timed region. In a traced run the set-up runs once, as a traced
/// period.
template <typename SetupFn, typename ReleaseFn>
double timed_setups(const Args& args, Tracer& tracer, std::size_t setups,
                    SetupFn&& setup, ReleaseFn&& release) {
  std::vector<double> times;
  const std::size_t n = tracer.enabled() ? 1 : setups;
  for (std::size_t s = 0; s < n; ++s) {
    if (s > 0) release();
    const Clock::time_point t0 = s == 0 ? args.start : Clock::now();
    tracer.begin(/*setup=*/true);
    setup();
    tracer.end();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

/// Scratch directory of this run, relative to the checkout root; created
/// on first use and removed by main() at exit.
const std::string& run_dir();

// Workloads (one translation unit each).
WorkloadResult run_kle_offline(const Args& args, Tally& tally, Tracer& tracer);
WorkloadResult run_kle_matfree(const Args& args, Tally& tally, Tracer& tracer);
WorkloadResult run_mc_table1(const Args& args, Tally& tally, Tracer& tracer);
WorkloadResult run_serve_sample(const Args& args, Tally& tally,
                                Tracer& tracer);

}  // namespace perfbench
