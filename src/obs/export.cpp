#include "obs/export.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sckl::obs {
namespace {

struct TreeNode {
  const SpanRecord* rec = nullptr;
  std::vector<int> children;  // indices into the node array
};

// Builds a forest over the snapshot. Spans whose parent was never closed (or
// belongs to a previous session) are treated as roots rather than dropped.
std::vector<int> build_tree(const std::vector<SpanRecord>& spans,
                            std::vector<TreeNode>& nodes) {
  nodes.resize(spans.size());
  std::map<std::uint64_t, int> by_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    nodes[i].rec = &spans[i];
    by_id[spans[i].id] = static_cast<int>(i);
  }
  std::vector<int> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = by_id.find(spans[i].parent);
    if (spans[i].parent != 0 && it != by_id.end()) {
      nodes[it->second].children.push_back(static_cast<int>(i));
    } else {
      roots.push_back(static_cast<int>(i));
    }
  }
  auto by_start = [&](int a, int b) {
    return nodes[a].rec->start_ns < nodes[b].rec->start_ns;
  };
  for (TreeNode& n : nodes) std::sort(n.children.begin(), n.children.end(), by_start);
  std::sort(roots.begin(), roots.end(), by_start);
  return roots;
}

void print_node(std::FILE* out, const std::vector<TreeNode>& nodes, int idx,
                int depth, double root_wall_ns) {
  const SpanRecord& r = *nodes[idx].rec;
  double pct = root_wall_ns > 0 ? 100.0 * static_cast<double>(r.wall_ns) / root_wall_ns
                                : 0.0;
  std::fprintf(out, "  %*s%-*s %10.3f ms  cpu %10.3f ms  %5.1f%%  [t%u]\n", depth * 2,
               "", std::max(1, 36 - depth * 2), r.name,
               static_cast<double>(r.wall_ns) / 1e6,
               static_cast<double>(r.cpu_ns) / 1e6, pct, r.thread);
  for (int child : nodes[idx].children) {
    print_node(out, nodes, child, depth + 1, root_wall_ns);
  }
}

void append_json_escaped(std::string& out, const char* s) {
  for (const char* p = s; *p; ++p) {
    switch (*p) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(*p) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", *p);
          out += buf;
        } else {
          out += *p;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

void write_text_report(std::FILE* out) {
  const std::vector<SpanRecord> spans = trace_snapshot();
  std::fprintf(out, "\n== sckl trace report ==\n");
  if (spans.empty()) {
    std::fprintf(out, "  (no spans recorded)\n");
  } else {
    std::vector<TreeNode> nodes;
    const std::vector<int> roots = build_tree(spans, nodes);
    for (int root : roots) {
      print_node(out, nodes, root, 0,
                 static_cast<double>(nodes[root].rec->wall_ns));
    }
  }
  std::fprintf(out, "\n== sckl metrics ==\n");
  for (const MetricRow& row : metrics_snapshot()) {
    switch (row.kind) {
      case MetricRow::Kind::kCounter:
        std::fprintf(out, "  %-40s %12" PRIu64 "\n", row.name.c_str(), row.count);
        break;
      case MetricRow::Kind::kGauge:
        std::fprintf(out, "  %-40s %12.3f\n", row.name.c_str(), row.value);
        break;
      case MetricRow::Kind::kHistogram:
        std::fprintf(out,
                     "  %-40s n=%-8" PRIu64 " mean=%.3g min=%.3g max=%.3g "
                     "p50<=%.3g p99<=%.3g\n",
                     row.name.c_str(), row.histogram.count, row.histogram.mean,
                     row.histogram.min, row.histogram.max,
                     row.histogram.quantile(0.5), row.histogram.quantile(0.99));
        break;
    }
  }
  std::fflush(out);
}

std::string trace_json_string() {
  const std::vector<SpanRecord> spans = trace_snapshot();
  std::string out;
  out.reserve(4096 + spans.size() * 128);
  out += "{\n  \"schema\": \"sckl-trace-v1\",\n  \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    out += i == 0 ? "\n" : ",\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                  ", \"name\": \"",
                  r.id, r.parent);
    out += buf;
    append_json_escaped(out, r.name);
    std::snprintf(buf, sizeof buf,
                  "\", \"thread\": %u, \"start_ns\": %" PRId64
                  ", \"wall_ns\": %" PRId64 ", \"cpu_ns\": %" PRId64
                  ", \"tag\": %" PRIu64 "}",
                  r.thread, r.start_ns, r.wall_ns, r.cpu_ns, r.tag);
    out += buf;
  }
  out += spans.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": ";
  out += metrics_json_array();
  out += "\n}\n";
  return out;
}

std::string metrics_json_array() {
  const std::vector<MetricRow> rows = metrics_snapshot();
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const MetricRow& row = rows[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"";
    append_json_escaped(out, row.name.c_str());
    out += "\", \"kind\": \"";
    switch (row.kind) {
      case MetricRow::Kind::kCounter: out += "counter"; break;
      case MetricRow::Kind::kGauge: out += "gauge"; break;
      case MetricRow::Kind::kHistogram: out += "histogram"; break;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "\", \"count\": %" PRIu64 ", \"value\": ",
                  row.count);
    out += buf;
    append_double(out, row.value);
    if (row.kind == MetricRow::Kind::kHistogram) {
      out += ", \"sum\": ";
      append_double(out, row.histogram.sum);
      out += ", \"min\": ";
      append_double(out, row.histogram.min);
      out += ", \"max\": ";
      append_double(out, row.histogram.max);
      out += ", \"p50\": ";
      append_double(out, row.histogram.quantile(0.5));
      out += ", \"p99\": ";
      append_double(out, row.histogram.quantile(0.99));
    }
    out += "}";
  }
  out += rows.empty() ? "]" : "\n  ]";
  return out;
}

bool write_trace_json(const std::string& path) {
  const std::string doc = trace_json_string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open %s for writing: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
  }
  return ok;
}

TraceSession::TraceSession(bool enable_flag, std::string json_path)
    : json_path_(std::move(json_path)) {
  active_ = enable_flag || !json_path_.empty() || trace_env_requested();
  if (!active_) return;
  register_standard_metrics();
  trace_reset();
  trace_enable(true);
}

TraceSession::~TraceSession() {
  if (!active_) return;
  trace_enable(false);
  write_text_report(stderr);
  if (!json_path_.empty()) {
    write_trace_json(json_path_);
  }
}

int run_tool(const char* tool, const CliFlags& flags,
             const std::function<int()>& body) {
  try {
    const ExperimentFlagSet shared = parse_experiment_flags(flags);
    const TraceSession session(shared.trace, shared.trace_json);
    return body();
  } catch (const std::exception& e) {
    // sckl::Error and anything else (std::bad_alloc from an oversized
    // solve, ...): a message and exit 1, never an abort.
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 1;
  }
}

}  // namespace sckl::obs
