#include "store/artifact_store.h"

#include <atomic>
#include <cstdio>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "store/file_lock.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace sckl::store {

namespace fs = std::filesystem;

namespace {

std::uint64_t process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

/// Tmp name unique across processes (pid) and threads (sequence), so
/// concurrent writers never share an in-flight file and a crashed writer's
/// leftover is attributable: <key>.sckl.<pid>.<seq>.tmp
std::string unique_tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return "." + std::to_string(process_id()) + "." +
         std::to_string(counter.fetch_add(1)) + ".tmp";
}

bool is_sckl_file(const fs::directory_entry& entry) {
  return entry.is_regular_file() && is_artifact_file(entry.path());
}

bool is_transient(const Error& e) {
  return e.code() == ErrorCode::kIoTransient;
}

}  // namespace

const char* to_string(FetchSource source) {
  switch (source) {
    case FetchSource::kMemory: return "memory";
    case FetchSource::kDisk: return "disk";
    case FetchSource::kSolved: return "solved";
  }
  return "unknown";
}

std::string to_string(const StoreHealth& health) {
  char buffer[200];
  std::snprintf(buffer, sizeof(buffer),
                "read_retries=%zu write_retries=%zu failed_reads=%zu "
                "failed_writes=%zu quarantined=%zu deduped_solves=%zu",
                health.read_retries, health.write_retries, health.failed_reads,
                health.failed_writes, health.quarantined,
                health.deduped_solves);
  return buffer;
}

KleArtifactStore::KleArtifactStore(fs::path root, const StoreOptions& options)
    : root_(std::move(root)), options_(options), cache_(options.cache_bytes) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  require(!ec && fs::is_directory(root_),
          "KleArtifactStore: cannot create repository root '" +
              root_.string() + "'");
  if (options_.fsck_on_open) store::fsck(root_, FsckOptions{});
}

fs::path KleArtifactStore::path_for(const KleArtifactConfig& config) const {
  return root_ / (key_string(artifact_key(config)) + ".sckl");
}

fs::path KleArtifactStore::lock_path_for(const KleArtifactConfig& config) const {
  return root_ / (key_string(artifact_key(config)) + ".lock");
}

std::shared_ptr<const core::KleResult> KleArtifactStore::load_from_disk(
    std::uint64_t key, const fs::path& path) {
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return nullptr;
  obs::Span span("store.disk_load");
  robust::RetryStats stats;
  try {
    // Transient read failures (EIO, injected store_read faults) are retried
    // with bounded backoff before we give up on the disk copy.
    StoredKleResult stored = robust::retry_bounded(
        options_.retry, [&] { return read_kle_file(path.string()); },
        is_transient, &stats);
    read_retries_ += static_cast<std::size_t>(stats.retried);
    obs::counter("sckl.store.read_retries")
        .add(static_cast<std::uint64_t>(stats.retried));
    // Defend against renamed/colliding files: the stored config must hash
    // back to the file's own key.
    if (artifact_key(stored.config) == key) {
      auto loaded =
          std::make_shared<const core::KleResult>(std::move(stored.kle));
      cache_.put(key, loaded, loaded->resident_bytes());
      return loaded;
    }
    // Valid file, wrong content for its name: quarantine the evidence and
    // re-solve (the rewrite replaces the name atomically).
    quarantine(path);
  } catch (const Error& e) {
    read_retries_ += static_cast<std::size_t>(stats.retried);
    obs::counter("sckl.store.read_retries")
        .add(static_cast<std::uint64_t>(stats.retried));
    ++failed_reads_;
    obs::counter("sckl.store.failed_reads").add(1);
    if (e.code() == ErrorCode::kCorruptArtifact)
      quarantine(path);  // keep the broken bytes for post-mortem
    // Either way: the caller falls through to a fresh solve, which rewrites
    // the file atomically. The fallback costs a solve, never the answer.
  }
  return nullptr;
}

void KleArtifactStore::publish(const fs::path& path,
                               const KleArtifactConfig& config,
                               const core::KleResult& solved) {
  obs::Span span("store.publish");
  const fs::path tmp = path.string() + unique_tmp_suffix();
  // write_kle_file fsyncs the tmp bytes (and hosts the store_write fault
  // site plus the store_write_pre_fsync crash point).
  write_kle_file(tmp.string(), config, solved);
  // A kill here leaves a durable but unpublished tmp file: fsck/gc reap it,
  // and no reader ever saw a partial artifact under the final name.
  robust::crash_point(robust::FaultSite::kStoreWritePreRename);
  std::error_code rename_ec;
  fs::rename(tmp, path, rename_ec);
  if (rename_ec) {
    fs::remove(tmp, rename_ec);
    throw Error("KleArtifactStore: cannot publish artifact to '" +
                    path.string() + "'",
                ErrorCode::kIoTransient);
  }
  // A kill here loses only the *directory-entry* durability of the rename;
  // the artifact is already readable by every live process.
  robust::crash_point(robust::FaultSite::kStoreWritePostRename);
  fsync_directory(root_.string());
}

FetchResult KleArtifactStore::get_or_compute(
    const KleArtifactConfig& config, const kernels::CovarianceKernel& kernel) {
  obs::Span span("store.fetch");
  static obs::Counter& cache_hits = obs::counter("sckl.store.cache.hits");
  static obs::Counter& cache_misses = obs::counter("sckl.store.cache.misses");
  obs::Stopwatch watch;
  const std::uint64_t key = artifact_key(config);

  FetchResult result;
  if (auto cached = cache_.get(key)) {
    cache_hits.add(1);
    obs::counter("sckl.store.fetch.memory").add(1);
    result.artifact = std::move(cached);
    result.source = FetchSource::kMemory;
    result.seconds = watch.seconds();
    return result;
  }
  cache_misses.add(1);

  // Shared store lock for the rest of the fetch: publications and key-lock
  // acquisitions never overlap a gc()/fsck() sweep (which holds it
  // exclusively). Lock order is always store.lock, then one <key>.lock.
  const FileLock store_lock = [&] {
    obs::Span lock_span("store.lock_wait");
    return FileLock::acquire(root_ / kStoreLockName, FileLock::Mode::kShared);
  }();

  const fs::path path = root_ / (key_string(key) + ".sckl");
  if (auto loaded = load_from_disk(key, path)) {
    obs::counter("sckl.store.fetch.disk").add(1);
    result.artifact = std::move(loaded);
    result.source = FetchSource::kDisk;
    result.seconds = watch.seconds();
    return result;
  }

  // Cold key: take the per-key solve lock, then re-check both tiers — if we
  // blocked behind another thread or process solving the same key, its
  // result is there now and the expensive eigensolve is skipped entirely.
  const FileLock key_lock = [&] {
    obs::Span lock_span("store.lock_wait");
    return FileLock::acquire(root_ / (key_string(key) + ".lock"),
                             FileLock::Mode::kExclusive);
  }();
  if (auto cached = cache_.get(key)) {
    ++deduped_solves_;
    obs::counter("sckl.store.deduped_solves").add(1);
    obs::counter("sckl.store.fetch.memory").add(1);
    result.artifact = std::move(cached);
    result.source = FetchSource::kMemory;
    result.seconds = watch.seconds();
    return result;
  }
  if (auto loaded = load_from_disk(key, path)) {
    ++deduped_solves_;
    obs::counter("sckl.store.deduped_solves").add(1);
    obs::counter("sckl.store.fetch.disk").add(1);
    result.artifact = std::move(loaded);
    result.source = FetchSource::kDisk;
    result.seconds = watch.seconds();
    return result;
  }

  auto solved = [&] {
    obs::Span solve_span("store.solve");
    return std::make_shared<const core::KleResult>(
        solve_artifact(config, kernel));
  }();
  robust::RetryStats stats;
  try {
    robust::retry_bounded(
        options_.retry, [&] { publish(path, config, *solved); },
        is_transient, &stats);
    write_retries_ += static_cast<std::size_t>(stats.retried);
    obs::counter("sckl.store.write_retries")
        .add(static_cast<std::uint64_t>(stats.retried));
  } catch (const Error& e) {
    if (!is_transient(e)) throw;
    // Persistence failed even after retries; the solved artifact is still
    // perfectly usable — degrade to memory-only and count the loss.
    write_retries_ += static_cast<std::size_t>(stats.retried);
    obs::counter("sckl.store.write_retries")
        .add(static_cast<std::uint64_t>(stats.retried));
    ++failed_writes_;
    obs::counter("sckl.store.failed_writes").add(1);
  }
  cache_.put(key, solved, solved->resident_bytes());
  obs::counter("sckl.store.fetch.solved").add(1);
  result.artifact = std::move(solved);
  result.source = FetchSource::kSolved;
  result.seconds = watch.seconds();
  return result;
}

void KleArtifactStore::quarantine(const fs::path& path) {
  std::error_code ec;
  const fs::path bad = path.string() + ".bad";
  fs::rename(path, bad, ec);
  if (ec) {
    // Can't even move it aside (read-only dir?); delete so the poisoned file
    // stops shadowing the re-solved artifact. Losing evidence beats serving
    // corruption.
    fs::remove(path, ec);
  }
  ++quarantined_;
  obs::counter("sckl.store.quarantined").add(1);
}

StoreHealth KleArtifactStore::health() const {
  StoreHealth h;
  h.read_retries = read_retries_.load();
  h.write_retries = write_retries_.load();
  h.failed_reads = failed_reads_.load();
  h.failed_writes = failed_writes_.load();
  h.quarantined = quarantined_.load();
  h.deduped_solves = deduped_solves_.load();
  return h;
}

bool KleArtifactStore::contains(const KleArtifactConfig& config) const {
  const FileLock store_lock =
      FileLock::acquire(root_ / kStoreLockName, FileLock::Mode::kShared);
  const fs::path path = path_for(config);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return false;
  try {
    const StoredKleResult loaded = robust::retry_bounded(
        options_.retry, [&] { return read_kle_file(path.string()); },
        is_transient);
    return artifact_key(loaded.config) == artifact_key(config);
  } catch (const Error&) {
    return false;
  }
}

std::vector<StoreEntry> KleArtifactStore::ls() const {
  std::vector<StoreEntry> entries;
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    const bool quarantined = is_quarantine_file(entry.path());
    if (!is_sckl_file(entry) && !quarantined) continue;
    StoreEntry e;
    // A quarantined "<key>.sckl.bad" reports the same key as the healthy
    // file it used to be.
    e.key = quarantined ? entry.path().stem().stem().string()
                        : entry.path().stem().string();
    e.quarantined = quarantined;
    std::error_code ec;
    e.file_bytes = entry.file_size(ec);
    entries.push_back(std::move(e));
  }
  return entries;
}

GcReport KleArtifactStore::gc(const GcOptions& options) {
  obs::Span span("store.gc");
  // Exclusive store lock: no publication or solve is in flight, so every
  // tmp file is orphaned and every unheld lock file is stale by definition.
  const fs::path store_lock_path = root_ / kStoreLockName;
  const FileLock guard =
      FileLock::acquire(store_lock_path, FileLock::Mode::kExclusive);

  GcReport report;
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (is_tmp_file(path)) {
      if (file_age_seconds(path) >= options.tmp_max_age_seconds)
        report.candidates.push_back({path, "orphaned tmp"});
      continue;
    }
    if (is_lock_file(path)) {
      if (path != store_lock_path && !lock_is_held(path))
        report.candidates.push_back({path, "stale lock"});
      continue;
    }
    if (is_quarantine_file(path)) {
      report.candidates.push_back({path, "quarantined evidence"});
      continue;
    }
    if (!is_artifact_file(path)) continue;
    try {
      const StoredKleResult loaded = robust::retry_bounded(
          options_.retry, [&] { return read_kle_file(path.string()); },
          is_transient);
      if (key_string(artifact_key(loaded.config)) != path.stem().string())
        report.candidates.push_back({path, "key mismatch"});
    } catch (const Error& e) {
      // A read that stays transient after retries proves nothing about the
      // file; deleting on it would let a disk hiccup wipe healthy artifacts.
      if (e.code() != ErrorCode::kIoTransient)
        report.candidates.push_back({path, "corrupt artifact"});
    }
  }
  if (options.dry_run) return report;
  for (const auto& candidate : report.candidates) {
    // A kill mid-sweep must leave committed artifacts intact — each deletion
    // below only ever targets debris, so stopping halfway is always safe.
    robust::crash_point(robust::FaultSite::kStoreGcMidSweep);
    std::error_code ec;
    if (fs::remove(candidate.path, ec) && !ec) ++report.removed;
  }
  obs::counter("sckl.store.gc.removed").add(report.removed);
  return report;
}

FsckResult KleArtifactStore::fsck(const FsckOptions& options) const {
  return store::fsck(root_, options);
}

}  // namespace sckl::store
