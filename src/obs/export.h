// Exporters for the trace/metrics subsystem, plus the TraceSession RAII
// helper that binaries use to turn flags/env into a complete session.
//
// Two output forms, both over the same snapshot:
//  - write_text_report: indented span tree (wall ms, CPU ms, % of root) and
//    a metrics table, meant for a human on stderr;
//  - write_trace_json: stable machine-readable schema "sckl-trace-v1":
//      {
//        "schema": "sckl-trace-v1",
//        "spans":   [{"id","parent","name","thread",
//                     "start_ns","wall_ns","cpu_ns","tag"} ...],
//        "metrics": [{"name","kind","count","value",          (all kinds)
//                     "sum","min","max","p50","p99"} ...]     (histograms)
//      }
//    Every binary's --trace-json=PATH writes it (CI uploads ssta_flow's).
#pragma once

#include <cstdio>
#include <functional>
#include <string>

#include "common/cli.h"

namespace sckl::obs {

/// Prints the span tree and metrics table for the current snapshot.
void write_text_report(std::FILE* out);

/// Serializes the current snapshot as sckl-trace-v1 JSON. Returns false (and
/// prints a warning to stderr) if the file cannot be written.
bool write_trace_json(const std::string& path);

/// Returns the sckl-trace-v1 JSON document as a string (exact bytes
/// write_trace_json would produce) — used by benches to splice trace data
/// into their own JSON output, and by tests for round-trip checks.
std::string trace_json_string();

/// Returns just the metrics portion of the snapshot as a JSON array
/// ("[{...}, ...]", "[]" when empty) — the same objects trace_json_string
/// places under "metrics". The serve daemon's Stats reply embeds this so
/// remote clients see the identical schema the local exporters produce.
std::string metrics_json_array();

/// RAII session: arms tracing at construction if requested, and at
/// destruction emits the stderr report and optional JSON file.
///
/// Tracing activates when any of these holds:
///   - `enable_flag` is true (a binary's --trace flag),
///   - `json_path` is non-empty (--trace-json=PATH implies tracing),
///   - the SCKL_TRACE environment variable requests it.
/// When inactive the session does nothing at all.
class TraceSession {
 public:
  TraceSession(bool enable_flag, std::string json_path);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return active_; }

 private:
  bool active_ = false;
  std::string json_path_;
};

/// The main() of a command-line tool: parses the shared experiment flags,
/// keeps a TraceSession open while `body` runs (so every span closes before
/// the export), and turns any std::exception from either (an sckl::Error,
/// a std::bad_alloc, ...) into "<tool>: <message>" on stderr and exit
/// status 1.
int run_tool(const char* tool, const CliFlags& flags,
             const std::function<int()>& body);

}  // namespace sckl::obs
