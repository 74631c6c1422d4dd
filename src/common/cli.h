// Minimal command-line flag parsing for bench binaries and examples.
//
// Flags use the form --name=value (or bare --name for booleans); anything
// else is a positional argument. Space-separated values are deliberately
// not supported — "--flag positional" would be ambiguous. Unknown flags are
// tolerated: a binary reads only the names it asks for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sckl {

/// Parses --key=value style flags with typed accessors and defaults.
class CliFlags {
 public:
  CliFlags(int argc, const char* const* argv);

  /// True when the flag was present (with or without a value).
  bool has(const std::string& name) const;

  /// String flag value, or `fallback` when absent.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;

  /// Integer flag value; throws on malformed input.
  long get_int(const std::string& name, long fallback) const;

  /// Count flag value; throws on malformed or negative input (which would
  /// otherwise wrap to about 2^64).
  std::size_t get_size(const std::string& name, std::size_t fallback) const;

  /// Double flag value; throws on malformed input.
  double get_double(const std::string& name, double fallback) const;

  /// Boolean flag: present without value, or =true/=false/=1/=0.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Non-flag arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The flag vocabulary shared by the experiment binaries (ssta_flow,
/// kle_store_tool, bench_table1_ssta, bench_fig6_convergence):
///
///   --circuit=NAME  --samples=N  --r=N  --seed=N  --threads=K
///   --block-samples=N  --store=DIR  --validate  --strict  --fsck
///   --run-id=NAME   --resume
///   --matrix-free   --aca-tol=EPS
///   --trace         --trace-json=PATH
///
/// Registered in one place so a new option (e.g. --threads) lands in every
/// binary at once instead of being hand-rolled per main(). Construct with
/// the binary's defaults, then apply() overrides the fields whose flags are
/// present on the command line. ssta::add_experiment_flags() maps a parsed
/// set onto an ExperimentConfig (the ssta layer owns that type).
struct ExperimentFlagSet {
  std::string circuit = "c880";
  std::size_t num_samples = 1000;
  std::size_t r = 25;
  std::uint64_t seed = 1;
  /// 0 = auto (SCKL_THREADS env, else hardware concurrency), 1 = serial.
  std::size_t num_threads = 0;
  /// Monte Carlo block size (--block-samples): samples generated per
  /// staged latent-fill + GEMM in the MC pipeline, and the serve daemon's
  /// per-chunk row count. 0 = each consumer's default. Index-addressed
  /// sampling makes the choice a pure performance knob — results are
  /// bit-identical for any value. apply() rejects values above
  /// kMaxBlockSamples (the serve layer's max_sample_rows ceiling).
  std::size_t block_samples = 0;
  std::string store_root;  // empty = no artifact store
  bool validate = false;
  bool strict = false;  // implies validate at the consumer
  bool fsck = false;    // run store crash recovery on open
  /// Checkpointed Monte Carlo (ssta/mc_run.h): a non-empty run_id selects
  /// the crash-safe runner, writing the run ledger under <store>/mc_runs
  /// (requires --store). resume continues a ledger that already holds
  /// completed leases instead of rejecting it.
  std::string run_id;
  bool resume = false;
  /// Matrix-free KLE solve (--matrix-free): Lanczos runs on the
  /// hierarchical ACA-compressed Galerkin operator instead of assembling
  /// the dense n x n matrix — the scaling path past ~10^4 triangles
  /// (DESIGN.md §14). Eigenvalue-accurate to aca_tol, not bit-stable.
  /// Applies to the fresh-solve path; store fetches are unaffected.
  bool matrix_free = false;
  /// Relative ACA block tolerance for --matrix-free (--aca-tol). 0 = the
  /// solver default (linalg::HmatOptions::aca_tolerance). Must be >= 0.
  double aca_tol = 0.0;
  /// Observability (obs::TraceSession reads both; a non-empty trace_json
  /// implies tracing, as does the SCKL_TRACE environment variable).
  bool trace = false;
  std::string trace_json;  // empty = no JSON export

  /// Largest accepted --block-samples value. Matches the serve layer's
  /// default max_sample_rows cap so one request/block can never outgrow
  /// what a server is willing to materialize.
  static constexpr std::size_t kMaxBlockSamples = std::size_t{1} << 20;

  /// Overrides fields from the flags present in `flags`.
  void apply(const CliFlags& flags);
};

/// Parses the shared experiment flags over `defaults`.
ExperimentFlagSet parse_experiment_flags(const CliFlags& flags,
                                         ExperimentFlagSet defaults = {});

}  // namespace sckl
