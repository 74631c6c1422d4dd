#include "store/recovery.h"

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "store/file_lock.h"
#include "store/key_hash.h"
#include "store/kle_io.h"

namespace sckl::store {

namespace fs = std::filesystem;

namespace {

bool name_ends_with(const std::string& name, const char* suffix) {
  const std::string_view s(suffix);
  return name.size() >= s.size() &&
         name.compare(name.size() - s.size(), s.size(), s) == 0;
}

/// Moves a broken artifact to <name>.bad, falling back to deletion (losing
/// evidence beats leaving corruption under a servable name).
bool quarantine_file(const fs::path& path) {
  std::error_code ec;
  fs::rename(path, fs::path(path.string() + ".bad"), ec);
  if (!ec) return true;
  fs::remove(path, ec);
  return !ec;
}

}  // namespace

bool is_artifact_file(const fs::path& path) {
  return path.extension() == ".sckl";
}

bool is_quarantine_file(const fs::path& path) {
  return name_ends_with(path.filename().string(), ".sckl.bad");
}

bool is_tmp_file(const fs::path& path) {
  const std::string name = path.filename().string();
  const std::size_t sckl = name.find(".sckl.");
  return sckl != std::string::npos && name.find(".tmp", sckl) != std::string::npos &&
         !name_ends_with(name, ".bad") && !name_ends_with(name, ".lock");
}

bool is_lock_file(const fs::path& path) {
  return path.extension() == ".lock";
}

double file_age_seconds(const fs::path& path) {
  std::error_code ec;
  const fs::file_time_type written = fs::last_write_time(path, ec);
  if (ec) return 0.0;
  const auto age = fs::file_time_type::clock::now() - written;
  return std::chrono::duration<double>(age).count();
}

FsckResult fsck(const fs::path& root, const FsckOptions& options) {
  obs::Span span("store.fsck");
  obs::counter("sckl.store.fsck.runs").add(1);
  std::error_code ec;
  require(fs::is_directory(root, ec) && !ec,
          "fsck: store root '" + root.string() + "' is not a directory");

  // Exclusive store lock: no publication or key-lock acquisition can be in
  // flight while we classify, so "orphaned" and "stale" verdicts are safe.
  const fs::path store_lock_path = root / kStoreLockName;
  const FileLock guard = FileLock::acquire(store_lock_path, FileLock::Mode::kExclusive);

  FsckResult result;
  FsckStats& stats = result.stats;
  robust::HealthReport& report = result.report;
  const robust::Severity fixed =
      options.repair ? robust::Severity::kInfo : robust::Severity::kWarning;

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }

  for (const fs::path& path : files) {
    const std::string name = path.filename().string();
    ++stats.scanned;

    if (is_tmp_file(path)) {
      ++stats.orphaned_tmp;
      const double age = file_age_seconds(path);
      const bool reap = options.repair && age >= options.tmp_max_age_seconds;
      report.add(fixed, "orphaned_tmp",
                 name + ": interrupted publication" +
                     (reap ? ", reaped" : ", kept (younger than max age)"));
      if (reap) {
        robust::crash_point(robust::FaultSite::kStoreGcMidSweep);
        std::error_code rm;
        if (fs::remove(path, rm) && !rm) ++stats.repaired;
      }
      continue;
    }

    if (is_lock_file(path)) {
      if (path == store_lock_path) continue;  // held by this very pass
      if (lock_is_held(path)) {
        ++stats.live_locks;
        report.add(robust::Severity::kInfo, "live_lock",
                   name + ": currently held, left alone");
        continue;
      }
      ++stats.stale_locks;
      report.add(fixed, "stale_lock",
                 name + ": no living holder" +
                     (options.repair ? ", removed" : ""));
      if (options.repair) {
        std::error_code rm;
        if (fs::remove(path, rm) && !rm) ++stats.repaired;
      }
      continue;
    }

    if (is_quarantine_file(path)) {
      ++stats.quarantined;
      const bool purge = options.repair && options.purge_quarantine;
      report.add(purge ? robust::Severity::kInfo : robust::Severity::kWarning,
                 "quarantine_evidence",
                 name + (purge ? ": purged"
                               : ": awaiting post-mortem (purge via gc or "
                                 "--purge-quarantine)"));
      if (purge) {
        std::error_code rm;
        if (fs::remove(path, rm) && !rm) ++stats.repaired;
      }
      continue;
    }

    if (!is_artifact_file(path)) continue;  // foreign file: not ours to judge

    try {
      const StoredKleResult loaded = read_kle_file(path.string());
      if (key_string(artifact_key(loaded.config)) == path.stem().string()) {
        ++stats.healthy;
        continue;
      }
      ++stats.mismatched;
      report.add(options.repair ? robust::Severity::kWarning
                                : robust::Severity::kError,
                 "key_mismatch",
                 name + ": content hashes to a different key (" +
                     std::string(to_string(ErrorCode::kCorruptArtifact)) +
                     ")" + (options.repair ? ", quarantined" : ""));
      if (options.repair) {
        robust::crash_point(robust::FaultSite::kStoreGcMidSweep);
        if (quarantine_file(path)) ++stats.repaired;
      }
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kIoTransient) {
        // A read that fails transiently proves nothing about the file;
        // repairing on it would let a disk hiccup destroy healthy artifacts.
        ++stats.unreadable;
        report.add(robust::Severity::kError, "unreadable",
                   name + ": " + std::string(to_string(e.code())) +
                       ", left untouched");
        continue;
      }
      ++stats.corrupt;
      report.add(options.repair ? robust::Severity::kWarning
                                : robust::Severity::kError,
                 "corrupt_artifact",
                 name + ": " + std::string(to_string(e.code())) +
                     (options.repair ? ", quarantined" : ""));
      if (options.repair && quarantine_file(path)) ++stats.repaired;
    }
  }

  report.metric("scanned", static_cast<double>(stats.scanned));
  report.metric("healthy", static_cast<double>(stats.healthy));
  report.metric("repaired", static_cast<double>(stats.repaired));
  if (stats.clean())
    report.add(robust::Severity::kInfo, "clean",
               "store contains only healthy artifacts");
  return result;
}

}  // namespace sckl::store
