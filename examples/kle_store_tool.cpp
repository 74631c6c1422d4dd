// Offline artifact-repository management CLI — the "decompose once" half of
// the paper's offline/online split (Algorithm 2 consumes what this builds).
//
//   kle_store_tool build   --root=DIR [--kernel=gaussian] [--c=VALUE]
//                          [--b=2 --s=2 | --rho=1]
//                          [--mesh=paper|cross|diagonal] [--triangles=1546]
//                          [--area-fraction=0.001] [--mesh-seed=1]
//                          [--pairs=50] [--quadrature=1|3|7] [--force]
//       Solves (or re-serves) the configured KLE into the repository and
//       reports cold-vs-warm wall time. The KLE flags are
//       store::parse_kle_config's, shared with `sckl_serve solve`.
//   kle_store_tool inspect --root=DIR --key=HEX   (or: inspect FILE.sckl)
//       Validates one artifact and prints its header, mesh size, and
//       leading eigenvalues.
//   kle_store_tool ls      --root=DIR
//       Lists artifacts with file sizes; quarantined .sckl.bad files are
//       flagged.
//   kle_store_tool fsck    --root=DIR [--report-only] [--purge-quarantine]
//                          [--tmp-age=SECONDS]
//       The repository sweep (store/recovery.h): reaps orphaned tmp files
//       and stale locks, quarantines CRC-invalid or misnamed artifacts to
//       .sckl.bad, and prints the severity-graded health report.
//       --report-only classifies without repairing; exit status is non-zero
//       when problems remain. --purge-quarantine keeps no evidence: broken
//       artifacts and .sckl.bad files are deleted. --tmp-age keeps tmp files
//       younger than the given age (an in-flight writer on another host may
//       still own them).
//   kle_store_tool gc      --root=DIR [--dry-run] [--tmp-age=SECONDS]
//       fsck --purge-quarantine: deletes orphaned tmp files, stale lock
//       files, corrupt/mismatched artifacts, and quarantined .sckl.bad
//       files. --dry-run is the same pass with --report-only: it prints the
//       plan without touching anything. Exit status is 0.
//   kle_store_tool lock-status --root=DIR
//       Shows every lock file in the repository and whether a living
//       process currently holds its flock.
//
// build/inspect accept --validate (run core::check_kle_health on the
// artifact and print the report) and --strict (additionally exit non-zero
// when the report has findings of kWarning or worse).
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "obs/export.h"
#include "common/error.h"
#include "obs/stopwatch.h"
#include "core/kle_health.h"
#include "store/artifact_store.h"
#include "store/file_lock.h"
#include "store/recovery.h"

namespace {

using namespace sckl;

void print_artifact(const store::KleArtifactConfig& config,
                    const core::KleResult& kle) {
  std::printf("  key          %s\n",
              store::key_string(store::artifact_key(config)).c_str());
  std::printf("  kernel       %s (", config.kernel_id.c_str());
  for (std::size_t i = 0; i < config.kernel_params.size(); ++i)
    std::printf("%s%.17g", i ? ", " : "", config.kernel_params[i]);
  std::printf(")\n");
  std::printf("  die          [%g, %g] x [%g, %g]\n", config.die.min.x,
              config.die.max.x, config.die.min.y, config.die.max.y);
  std::printf("  mesh         kind=%u target=%llu area_fraction=%g seed=%llu "
              "-> %zu triangles, %zu vertices\n",
              static_cast<unsigned>(config.mesh.kind),
              static_cast<unsigned long long>(config.mesh.target_triangles),
              config.mesh.area_fraction,
              static_cast<unsigned long long>(config.mesh.mesher_seed),
              kle.mesh().num_triangles(), kle.mesh().num_vertices());
  std::printf("  quadrature   %u-point\n",
              config.quadrature == core::QuadratureRule::kSymmetric7   ? 7u
              : config.quadrature == core::QuadratureRule::kSymmetric3 ? 3u
                                                                       : 1u);
  const auto& lambda = kle.eigenvalues();
  std::printf("  eigenpairs   %zu computed (requested %llu)\n", lambda.size(),
              static_cast<unsigned long long>(config.num_eigenpairs));
  std::printf("  lambda[0..4] ");
  for (std::size_t j = 0; j < lambda.size() && j < 5; ++j)
    std::printf("%s%.6g", j ? ", " : "", lambda[j]);
  std::printf("\n  memory       ~%.2f MiB resident\n",
              static_cast<double>(kle.resident_bytes()) / (1 << 20));
}

/// Shared --validate/--strict handling (the common ExperimentFlagSet
/// vocabulary): prints the health report and, in strict mode, throws
/// (exit 1 via main's catch) on warnings or worse.
void validate_artifact(const CliFlags& flags, const core::KleResult& kle) {
  const ExperimentFlagSet shared = parse_experiment_flags(flags);
  const bool strict = shared.strict;
  if (!strict && !shared.validate) return;
  const robust::HealthReport report = core::check_kle_health(kle);
  std::printf("health (worst: %s):\n%s", to_string(report.worst()),
              report.to_string().c_str());
  if (strict) report.throw_if_fatal(robust::Severity::kWarning);
}

int cmd_build(const CliFlags& flags, const std::string& root) {
  const store::KleArtifactConfig config = store::parse_kle_config(flags);
  const auto kernel =
      store::make_kernel(config.kernel_id, config.kernel_params);
  store::KleArtifactStore store(root);
  if (flags.get_bool("force", false)) {
    std::error_code ec;
    std::filesystem::remove(store.path_for(config), ec);
  }
  const store::FetchResult first = store.get_or_compute(config, *kernel);
  std::printf("build: source=%s wall=%.4fs -> %s\n", to_string(first.source),
              first.seconds, store.path_for(config).c_str());
  // Time the two warm paths: in-process memory hit, then a fresh store
  // instance forcing a disk load.
  const store::FetchResult memory_hit = store.get_or_compute(config, *kernel);
  store::KleArtifactStore cold_store(root);
  const store::FetchResult disk_hit = cold_store.get_or_compute(config, *kernel);
  std::printf("warm:  memory=%.6fs disk=%.6fs", memory_hit.seconds,
              disk_hit.seconds);
  if (first.source == store::FetchSource::kSolved && disk_hit.seconds > 0.0)
    std::printf("  (cold solve / warm disk load = %.0fx)",
                first.seconds / disk_hit.seconds);
  std::printf("\ncache: %s\n", to_string(store.cache_stats()).c_str());
  const store::StoreHealth health = store.health();
  if (health.total() > 0)
    std::printf("store faults: %s\n", to_string(health).c_str());
  print_artifact(config, *first.artifact);
  validate_artifact(flags, *first.artifact);
  return 0;
}

int cmd_inspect(const CliFlags& flags, const std::string& root) {
  std::string path;
  if (flags.has("key")) {
    path = (std::filesystem::path(root) /
            (flags.get_string("key", "") + ".sckl")).string();
  } else if (flags.positional().size() > 1) {
    path = flags.positional()[1];
  } else {
    std::fprintf(stderr, "inspect: need --root+--key or a .sckl file path\n");
    return 2;
  }
  const store::StoredKleResult artifact = store::read_kle_file(path);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  std::printf("%s: valid (%llu bytes on disk)\n", path.c_str(),
              static_cast<unsigned long long>(ec ? 0 : bytes));
  print_artifact(artifact.config, artifact.kle);
  validate_artifact(flags, artifact.kle);
  return 0;
}

int cmd_ls(const std::string& root) {
  // A listing reads the root; constructing the store would create it.
  std::error_code ec;
  require(std::filesystem::is_directory(root, ec),
          "ls: store root '" + root + "' is not a directory");
  store::KleArtifactStore store(root);
  const auto entries = store.ls();
  std::size_t quarantined = 0;
  for (const auto& entry : entries) {
    std::printf("%s  %12llu bytes%s\n", entry.key.c_str(),
                static_cast<unsigned long long>(entry.file_bytes),
                entry.quarantined ? "  [QUARANTINED]" : "");
    if (entry.quarantined) ++quarantined;
  }
  std::printf("%zu artifact(s) in %s", entries.size(), root.c_str());
  if (quarantined > 0)
    std::printf(" (%zu quarantined — run gc to purge)", quarantined);
  std::printf("\n");
  return 0;
}

int cmd_gc(const CliFlags& flags, const std::string& root) {
  store::FsckOptions options;
  options.repair = !flags.get_bool("dry-run", false);
  options.tmp_max_age_seconds = flags.get_double("tmp-age", 0.0);
  options.purge_quarantine = true;
  const store::FsckResult result = store::fsck(root, options);
  std::printf("%s", result.report.to_string().c_str());
  if (options.repair)
    std::printf("gc: removed %zu file(s) from %s\n", result.stats.repaired,
                root.c_str());
  else
    std::printf("gc --dry-run: would remove %.0f file(s) from %s\n",
                result.report.metric_value("planned"), root.c_str());
  return 0;
}

int cmd_fsck(const CliFlags& flags, const std::string& root) {
  store::FsckOptions options;
  options.repair = !flags.get_bool("report-only", false);
  options.purge_quarantine = flags.get_bool("purge-quarantine", false);
  options.tmp_max_age_seconds = flags.get_double("tmp-age", 0.0);
  const store::FsckResult result = store::fsck(root, options);
  std::printf("%s", result.report.to_string().c_str());
  std::printf("fsck %s: %zu scanned, %zu healthy, %zu tmp, %zu stale locks, "
              "%zu corrupt, %zu mismatched, %zu quarantined, %zu unreadable, "
              "%zu repaired\n",
              options.repair ? "(repair)" : "(report-only)",
              result.stats.scanned, result.stats.healthy,
              result.stats.orphaned_tmp, result.stats.stale_locks,
              result.stats.corrupt, result.stats.mismatched,
              result.stats.quarantined, result.stats.unreadable,
              result.stats.repaired);
  // Repair mode fixed (or quarantined) everything it safely could; only
  // unreadable files remain a live problem. Report-only flags any debris.
  const bool ok =
      options.repair ? result.stats.unreadable == 0 : result.stats.clean();
  return ok ? 0 : 1;
}

int cmd_lock_status(const std::string& root) {
  std::error_code ec;
  require(std::filesystem::is_directory(root, ec),
          "lock-status: store root '" + root + "' is not a directory");
  std::size_t locks = 0, held = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(root))) {
    if (!entry.is_regular_file() || !store::is_lock_file(entry.path()))
      continue;
    ++locks;
    const bool live = store::lock_is_held(entry.path());
    if (live) ++held;
    std::printf("%-24s %s\n", entry.path().filename().c_str(),
                live ? "HELD" : "stale (no living holder)");
  }
  std::printf("%zu lock file(s), %zu currently held\n", locks, held);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sckl;
  const CliFlags flags(argc, argv);
  return obs::run_tool("kle_store_tool", flags, [&] {
    if (flags.positional().empty()) {
      std::fprintf(stderr,
                   "usage: kle_store_tool "
                   "<build|inspect|ls|gc|fsck|lock-status> --root=DIR "
                   "[options]\n");
      return 2;
    }
    const std::string command = flags.positional().front();
    const std::string root = flags.get_string("root", ".sckl-store");
    if (command == "build") return cmd_build(flags, root);
    if (command == "inspect") return cmd_inspect(flags, root);
    if (command == "ls") return cmd_ls(root);
    if (command == "gc") return cmd_gc(flags, root);
    if (command == "fsck") return cmd_fsck(flags, root);
    if (command == "lock-status") return cmd_lock_status(root);
    std::fprintf(stderr, "kle_store_tool: unknown command '%s'\n",
                 command.c_str());
    return 2;
  });
}
