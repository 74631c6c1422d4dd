// Machine context recorded alongside benchmark results.
//
// Benchmark records are only comparable across runs when they say what
// hardware produced them: core count, the SCKL_THREADS override in effect,
// and the cpufreq governor (a "powersave" box can be 2x slower than the
// same silicon under "performance"). perfbench splices these fields into
// every record it prints.
#pragma once

#include <string>

namespace sckl {

/// Hardware/environment facts that shift benchmark numbers between boxes.
struct MachineContext {
  unsigned hardware_threads = 0;  // std::thread::hardware_concurrency()
  std::string sckl_threads;       // SCKL_THREADS env var; "" when unset
  std::string governor;  // cpu0 cpufreq scaling governor; "" when unknown
};

/// Reads the current machine's context. Never throws: a missing cpufreq
/// sysfs node (containers, non-Linux) simply leaves governor empty.
MachineContext read_machine_context();

/// The context as JSON object fields (no surrounding braces), e.g.
///   "hardware_threads": 8, "sckl_threads": "4", "governor": "performance"
/// for splicing into a larger JSON-lines benchmark record.
std::string machine_context_json_fields(const MachineContext& context);

}  // namespace sckl
