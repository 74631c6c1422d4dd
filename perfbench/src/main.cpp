// sckl benchmark: runs one workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (kle_offline, kle_matfree, mc_table1, serve_sample),
// checks its outputs, and prints a context record followed, as the last
// line, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, read from a run that alternates traced and
// untraced units of work. perfbench/run.py builds and invokes this binary.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "trace_fold.h"

namespace {

using namespace perfbench;

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0))
        return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

WorkloadResult run_workload(const Args& args, Tally& tally, Tracer& tracer) {
  if (args.workload == "kle_offline")
    return run_kle_offline(args, tally, tracer);
  if (args.workload == "kle_matfree")
    return run_kle_matfree(args, tally, tracer);
  if (args.workload == "mc_table1") return run_mc_table1(args, tally, tracer);
  if (args.workload == "serve_sample")
    return run_serve_sample(args, tally, tracer);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

std::string metrics_json(const std::vector<MetricSpec>& specs,
                         const LayerValues& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const MetricSpec& m : specs) {
    const auto it = values.find(m.name);
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << json_number(it == values.end() ? 0.0 : it->second)
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.start = Clock::now();
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  // Pin every pool the program resolves with the 0 = auto convention; the
  // workloads also pass the count explicitly.
  setenv("SCKL_THREADS", std::to_string(kThreads).c_str(), 1);

  Tally tally;
  Tracer tracer(args.trace);
  WorkloadResult result;
  CpuJiffies cpu_before;
  CpuJiffies cpu_after;
  int status = 0;
  try {
    cpu_before = read_cpu_jiffies();
    result = run_workload(args, tally, tracer);
    cpu_after = read_cpu_jiffies();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << "\n";
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(run_dir(), ignored);
  if (status != 0) return status;

  const double steal = steal_percent(cpu_before, cpu_after);
  LayerValues metrics;
  if (args.trace) {
    metrics = result.layers;
    metrics["host.steal_pct"] = steal;
  } else {
    metrics["setup_s"] = result.setup_s;
    metrics["peak_rss_mib"] = peak_rss_mib();
    metrics["op_ms"] = result.op_ms;
    metrics["ops_per_s"] = result.ops_per_s;
  }

  std::ostringstream facts;
  for (std::size_t i = 0; i < result.facts.size(); ++i)
    facts << (i == 0 ? "" : ", ") << result.facts[i];
  // Traced run: where the traced units' and the set-up's time went, by
  // span name, with self time (wall time minus the part child spans cover).
  const auto spans_json = [](const std::vector<sckl::obs::SpanRecord>& in) {
    std::ostringstream out;
    bool first = true;
    for (const auto& [name, t] : fold_spans(in)) {
      out << (first ? "" : ", ") << "\"" << json_escape(name)
          << "\": {\"wall_s\": " << json_number(t.wall_s)
          << ", \"self_s\": " << json_number(t.self_s)
          << ", \"count\": " << t.count << "}";
      first = false;
    }
    return out.str();
  };
  std::cout << "{\"record\": \"sckl-perfbench-v1\", \"workload\": \""
            << json_escape(args.workload) << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << json_number(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"unit\": \""
            << json_escape(result.unit) << "\", \"units\": " << result.units
            << ", \"context\": {" << run_context_json()
            << ", \"host.steal_pct\": " << json_number(steal)
            << "}, \"facts\": {" << facts.str() << "}";
  if (args.trace)
    std::cout << ", \"traced_ops\": " << tracer.traced_ops()
              << ", \"spans\": {" << spans_json(tracer.unit_spans())
              << "}, \"setup_spans\": {" << spans_json(tracer.setup_spans())
              << "}";
  std::cout << "}\n";
  std::cout << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed() << ", \"metrics\": "
            << metrics_json(args.trace ? per_layer_metrics()
                                       : end_to_end_metrics(),
                            metrics)
            << "}" << std::endl;
  return 0;
}
