#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/machine.h"
#include "linalg/gemm.h"
#include "obs/metrics.h"
#include "trace_fold.h"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"op_ms", "ms"},
      {"ops_per_s", "1/s"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"mesh.refine_s", "s"},
      {"mesh.triangles", "count"},
      {"core.assembly_s", "s"},
      {"core.assembly_evals_per_s", "1/s"},
      {"core.solve_kle_s", "s"},
      {"linalg.lanczos_s", "s"},
      {"linalg.lanczos.iterations", "count"},
      {"linalg.lanczos.matvecs", "count"},
      {"linalg.hmat.build_s", "s"},
      {"linalg.hmat.apply_s", "s"},
      {"linalg.hmat.compressed_bytes", "bytes"},
      {"linalg.hmat.lowrank_blocks", "count"},
      {"linalg.hmat.dense_blocks", "count"},
      {"linalg.hmat.aca_restarts", "count"},
      {"field.cholesky_setup_s", "s"},
      {"linalg.cholesky_s", "s"},
      {"linalg.cholesky_gflops", "GFLOP/s"},
      {"linalg.cholesky.jitter_retries", "count"},
      {"field.sampling_cpu_s.kle", "s"},
      {"field.sampling_cpu_s.chol", "s"},
      {"field.reconstruct_gflops.chol", "GFLOP/s"},
      {"field.samples.kle", "count"},
      {"field.samples.cholesky", "count"},
      {"timing.sta_cpu_s.kle", "s"},
      {"timing.sta_cpu_s.chol", "s"},
      {"timing.sta_ns_per_gate", "ns"},
      {"ssta.mc.parallel_eff", "ratio"},
      {"ssta.mc.speedup_2v1", "ratio"},
      {"ssta.mc.blocks", "count"},
      {"ssta.mc.claim_wait_ns", "ns"},
      {"ssta.mc.ledger_append_s", "s"},
      {"ssta.mc.ledger_appends", "count"},
      {"store.publish_s", "s"},
      {"store.fetch.memory", "count"},
      {"store.fetch.disk", "count"},
      {"store.fetch.solved", "count"},
      {"store.cache.hits", "count"},
      {"store.cache.misses", "count"},
      {"serve.request_p50_us", "us"},
      {"serve.request_tail_us", "us"},
      {"serve.sample_block_s", "s"},
      {"serve.batching_ratio", "ratio"},
      {"serve.sampler_cache_hit_ratio", "ratio"},
      {"serve.rejected", "count"},
      {"serve.queue_depth", "count"},
      {"serve.gen_lag_ms", "ms"},
      {"serve.client_tail_ms", "ms"},
      {"kle.build_s.gauss_m50", "s"},
      {"kle.build_s.gauss_m200", "s"},
      {"kle.build_s.matern_m50", "s"},
      {"kle.build_s.sepl1_m50", "s"},
      {"mc.kle_samples_per_s", "1/s"},
      {"mc.kle_ckpt_samples_per_s", "1/s"},
      {"mc.chol_samples_per_s", "1/s"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.span_coverage_pct", "%"},
      {"host.steal_pct", "%"},
  };
  return metrics;
}

void Tally::record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

Percentile percentile(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  if (n == 0) return {p, 0.0, 0};
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return {p, sorted[rank - 1], n - rank};
}

Percentile highest_supported_percentile(const std::vector<double>& sorted,
                                        const std::vector<double>& candidates,
                                        std::size_t min_beyond) {
  for (const double p : candidates) {
    const Percentile q = percentile(sorted, p);
    if (q.beyond >= min_beyond) return q;
  }
  return percentile(sorted, 50.0);
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuJiffies read_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuJiffies j;
  if (label != "cpu") return j;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double steal_percent(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string run_context_json() {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = 0.0;
  std::ostringstream out;
  out << "\"worker_threads\": " << kThreads << ", "
      << sckl::machine_context_json_fields(sckl::read_machine_context())
      << ", \"simd_target\": \""
      << sckl::linalg::simd_target_name(sckl::linalg::active_simd_target())
      << "\", \"loadavg\": [" << json_number(load[0]) << ", "
      << json_number(load[1]) << ", " << json_number(load[2]) << "]";
  return out.str();
}

std::map<std::string, double> registry_values() {
  using Kind = sckl::obs::MetricRow::Kind;
  std::map<std::string, double> values;
  for (const auto& row : sckl::obs::metrics_snapshot()) {
    switch (row.kind) {
      case Kind::kCounter:
        values[row.name] = static_cast<double>(row.count);
        break;
      case Kind::kGauge:
        values[row.name] = row.value;
        break;
      case Kind::kHistogram:
        values[row.name + ".count"] = static_cast<double>(row.count);
        values[row.name + ".sum"] = row.histogram.sum;
        break;
    }
  }
  return values;
}

void Tracer::begin(bool setup) {
  if (!enabled_ || open_) return;
  sckl::obs::trace_enable(true);
  before_ = registry_values();
  marker_ = std::make_unique<sckl::obs::Span>(setup ? "bench.setup"
                                                    : "bench.traced");
  marker_id_.store(marker_->id(), std::memory_order_release);
  (setup ? setup_markers_ : unit_markers_).push_back(marker_->id());
  open_ = true;
  open_is_setup_ = setup;
}

void Tracer::end() {
  if (!open_) return;
  marker_id_.store(0, std::memory_order_release);
  marker_.reset();
  sckl::obs::trace_enable(false);
  std::map<std::string, double>& into =
      open_is_setup_ ? setup_registry_ : unit_registry_;
  for (const auto& [name, value] : registry_values()) {
    const auto it = before_.find(name);
    into[name] += value - (it == before_.end() ? 0.0 : it->second);
  }
  open_ = false;
}

void Tracer::add_ops(std::size_t n) { traced_ops_ += n; }

void Tracer::record_unit(std::size_t k, double seconds) {
  (traces_unit(k) ? traced_ : untraced_).push_back(seconds);
}

double Tracer::overhead_percent() const {
  if (traced_.empty() || untraced_.empty()) return 0.0;
  return 100.0 * (median(traced_) / median(untraced_) - 1.0);
}

void Tracer::finish() {
  if (!enabled_ || finished_) return;
  finished_ = true;
  end();
  const std::vector<sckl::obs::SpanRecord> spans = sckl::obs::trace_snapshot();
  using Interval = std::pair<std::int64_t, std::int64_t>;
  const auto intervals_of = [&](const std::vector<std::uint64_t>& ids) {
    std::vector<Interval> out;
    for (const auto& s : spans)
      if (std::find(ids.begin(), ids.end(), s.id) != ids.end())
        out.push_back({s.start_ns, s.start_ns + s.wall_ns});
    return out;
  };
  const std::vector<Interval> setup = intervals_of(setup_markers_);
  const std::vector<Interval> units = intervals_of(unit_markers_);
  const auto inside = [](const std::vector<Interval>& in, std::int64_t t) {
    for (const auto& [b, e] : in)
      if (t >= b && t < e) return true;
    return false;
  };
  for (const auto& s : spans) {
    if (inside(setup, s.start_ns)) setup_spans_.push_back(s);
    if (inside(units, s.start_ns)) unit_spans_.push_back(s);
  }
}

double Tracer::coverage_percent() const {
  return 100.0 * child_coverage(unit_spans_, unit_markers_);
}

namespace {

/// Per-layer metrics read from span wall time: the program's own span where
/// the call may also happen inside the daemon, the benchmark's otherwise.
struct SpanLayer {
  const char* metric;
  const char* span;
};
constexpr SpanLayer kSpanLayers[] = {
    {"mesh.refine_s", "mesh.refine"},
    {"core.assembly_s", "core.galerkin_assembly"},
    {"core.solve_kle_s", "core.solve_kle"},
    {"linalg.lanczos_s", "linalg.lanczos"},
    {"linalg.hmat.build_s", "linalg.hmat.build"},
    {"linalg.hmat.apply_s", "linalg.hmat.apply"},
    {"field.cholesky_setup_s", "bench.cholesky_sampler"},
    {"linalg.cholesky_s", "linalg.cholesky"},
    {"ssta.mc.ledger_append_s", "ssta.mc.ledger_append"},
    {"store.publish_s", "store.publish"},
    {"serve.sample_block_s", "serve.sample_block"},
};

/// Per-layer metrics read from sckl.* counters.
struct CounterLayer {
  const char* metric;
  const char* counter;
};
constexpr CounterLayer kCounterLayers[] = {
    {"linalg.lanczos.iterations", "sckl.linalg.lanczos.iterations"},
    {"linalg.lanczos.matvecs", "sckl.linalg.lanczos.matvecs"},
    {"linalg.hmat.compressed_bytes", "sckl.linalg.hmat.compressed_bytes"},
    {"linalg.hmat.lowrank_blocks", "sckl.linalg.hmat.lowrank_blocks"},
    {"linalg.hmat.dense_blocks", "sckl.linalg.hmat.dense_blocks"},
    {"linalg.hmat.aca_restarts", "sckl.linalg.hmat.aca_restarts"},
    {"linalg.cholesky.jitter_retries", "sckl.linalg.cholesky.jitter_retries"},
    {"field.samples.kle", "sckl.field.samples.kle"},
    {"field.samples.cholesky", "sckl.field.samples.cholesky"},
    {"ssta.mc.blocks", "sckl.ssta.mc.blocks"},
    {"ssta.mc.ledger_appends", "sckl.ssta.mc.ledger_appends"},
    {"store.fetch.memory", "sckl.store.fetch.memory"},
    {"store.fetch.disk", "sckl.store.fetch.disk"},
    {"store.fetch.solved", "sckl.store.fetch.solved"},
    {"store.cache.hits", "sckl.store.cache.hits"},
    {"store.cache.misses", "sckl.store.cache.misses"},
};

double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

void add_traced_layers(const Tracer& tracer, LayerValues& layers) {
  const SpanFold units = fold_spans(tracer.unit_spans());
  const SpanFold setup = fold_spans(tracer.setup_spans());
  const double ops = static_cast<double>(std::max<std::size_t>(
      tracer.traced_ops(), 1));
  // A layer the measured units call is reported per unit of work; one
  // only set-up calls is reported per set-up (the traced run sets up once).
  const auto per_op = [&](double unit_total, double setup_total) {
    return unit_total > 0.0 ? unit_total / ops : setup_total;
  };
  for (const SpanLayer& l : kSpanLayers) {
    const auto u = units.find(l.span);
    const auto s = setup.find(l.span);
    layers[l.metric] = per_op(u == units.end() ? 0.0 : u->second.wall_s,
                              s == setup.end() ? 0.0 : s->second.wall_s);
  }
  for (const CounterLayer& l : kCounterLayers)
    layers[l.metric] = per_op(lookup(tracer.unit_registry(), l.counter),
                              lookup(tracer.setup_registry(), l.counter));
  double rejected_units = 0.0;
  double rejected_setup = 0.0;
  for (const auto& [name, v] : tracer.unit_registry())
    if (name.rfind("sckl.serve.rejected.", 0) == 0) rejected_units += v;
  for (const auto& [name, v] : tracer.setup_registry())
    if (name.rfind("sckl.serve.rejected.", 0) == 0) rejected_setup += v;
  layers["serve.rejected"] = per_op(rejected_units, rejected_setup);

  layers["obs.trace_overhead_pct"] = tracer.overhead_percent();
  layers["obs.span_coverage_pct"] = tracer.coverage_percent();
}

void add_fact(WorkloadResult& result, const std::string& name, double value) {
  std::string field = "\"";
  field += json_escape(name);
  field += "\": ";
  field += json_number(value);
  result.facts.push_back(std::move(field));
}

const std::string& run_dir() {
  static const std::string dir = [] {
    const std::string d =
        ".bench_build/run-" + std::to_string(static_cast<long>(getpid()));
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

}  // namespace perfbench
