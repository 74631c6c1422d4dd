#include "common/cli.h"

#include <cstdlib>

#include "common/error.h"

namespace sckl {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      values_[body] = "";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long CliFlags::get_int(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  require(end != nullptr && *end == '\0' && !it->second.empty(),
          "CliFlags: malformed integer for --" + name);
  return value;
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  require(end != nullptr && *end == '\0' && !it->second.empty(),
          "CliFlags: malformed double for --" + name);
  return value;
}

std::size_t CliFlags::get_size(const std::string& name,
                               std::size_t fallback) const {
  const long value = get_int(name, static_cast<long>(fallback));
  require(value >= 0, "CliFlags: --" + name + " must be non-negative");
  return static_cast<std::size_t>(value);
}

void ExperimentFlagSet::apply(const CliFlags& flags) {
  circuit = flags.get_string("circuit", circuit);
  num_samples = flags.get_size("samples", num_samples);
  r = flags.get_size("r", r);
  seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<long>(seed)));
  num_threads = flags.get_size("threads", num_threads);
  block_samples = flags.get_size("block-samples", block_samples);
  require(block_samples <= kMaxBlockSamples,
          "ExperimentFlagSet: --block-samples exceeds the maximum of " +
              std::to_string(kMaxBlockSamples));
  store_root = flags.get_string("store", store_root);
  validate = flags.get_bool("validate", validate);
  strict = flags.get_bool("strict", strict);
  run_id = flags.get_string("run-id", run_id);
  resume = flags.get_bool("resume", resume);
  matrix_free = flags.get_bool("matrix-free", matrix_free);
  aca_tol = flags.get_double("aca-tol", aca_tol);
  require(aca_tol >= 0.0, "ExperimentFlagSet: --aca-tol must be >= 0");
  trace = flags.get_bool("trace", trace);
  trace_json = flags.get_string("trace-json", trace_json);
}

ExperimentFlagSet parse_experiment_flags(const CliFlags& flags,
                                         ExperimentFlagSet defaults) {
  defaults.apply(flags);
  return defaults;
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  require(false, "CliFlags: malformed boolean for --" + name);
  return fallback;
}

}  // namespace sckl
