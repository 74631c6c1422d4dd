// Content-addressed repository of solved KLE artifacts.
//
// The paper's economics (Sec. 5, Algorithm 2) are "decompose once, sample
// forever": the Galerkin assembly + eigensolve dominate setup, while the
// downstream Monte Carlo only needs (eigenvalues, coefficients, mesh). The
// store makes that split operational:
//
//   memory LRU  ->  <root>/<hex key>.sckl on disk  ->  solve_kle fallback
//
// Keys are 64-bit content hashes of the artifact configuration (key_hash.h),
// so any parameter change produces a new file and stale artifacts can never
// be served for a different configuration.
//
// Crash consistency & multi-process safety. One root may be shared by many
// processes, any of which can die at any instant. The publish protocol is
//
//   write <key>.sckl.<pid>.<seq>.tmp  ->  fsync(tmp)  ->  rename to
//   <key>.sckl  ->  fsync(root directory)
//
// so a final name only ever maps to a complete, fsync-durable, checksummed
// file; a crash at any point leaves at worst an orphaned tmp file that
// fsck()/gc() reap. Coordination uses advisory flock (file_lock.h), which
// the kernel releases when a holder dies: every read/write operation holds
// <root>/store.lock shared, gc()/fsck() hold it exclusive, and a cold-key
// solve holds <key>.lock exclusive — N processes (or threads) racing on the
// same cold key perform exactly one eigensolve; the rest wake up, re-check
// the disk, and load the winner's artifact (StoreHealth::deduped_solves).
//
// Failure handling (reaction keyed on sckl::ErrorCode):
//   kIoTransient    read/write retried with bounded backoff (StoreOptions::
//                   retry); reads that stay broken fall back to a fresh
//                   solve, writes that stay broken degrade to memory-only.
//   kCorruptArtifact the file is quarantined — renamed to <key>.sckl.bad so
//                   the evidence survives for post-mortem instead of being
//                   silently rewritten — and the artifact is re-solved.
// Every reaction is counted in StoreHealth (health()). gc() deletes
// orphaned tmp files, stale lock files, invalid/misnamed artifacts, and
// quarantined files (dry-run supported); ls() lists quarantined entries
// alongside healthy ones; fsck() (recovery.h) is the conservative
// startup-repair variant that quarantines instead of deleting.
#pragma once

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "robust/retry.h"
#include "store/kle_io.h"
#include "store/lru_cache.h"
#include "store/recovery.h"

namespace sckl::store {

/// Tuning knobs of a KleArtifactStore.
struct StoreOptions {
  std::size_t cache_bytes = std::size_t{256} << 20;  // in-memory LRU budget
  bool fsck_on_open = false;  // run a repairing fsck() pass in the ctor
  robust::RetryPolicy retry;  // bounded backoff for transient disk I/O
};

/// Resilience telemetry: how often the store had to react to a fault.
/// All-zero on a healthy filesystem with uncontended keys.
struct StoreHealth {
  std::size_t read_retries = 0;      // transient read failures retried
  std::size_t write_retries = 0;     // transient write failures retried
  std::size_t failed_reads = 0;      // reads abandoned after retries -> solve
  std::size_t failed_writes = 0;     // writes abandoned -> memory-only result
  std::size_t quarantined = 0;       // corrupt artifacts moved to .sckl.bad
  std::size_t deduped_solves = 0;    // stampedes resolved by the per-key lock:
                                     // waited, re-checked, loaded instead of
                                     // re-solving

  std::size_t total() const {
    return read_retries + write_retries + failed_reads + failed_writes +
           quarantined + deduped_solves;
  }
};

/// One-line human-readable rendering of the counters.
std::string to_string(const StoreHealth& health);

/// Where a get_or_compute() answer came from.
enum class FetchSource {
  kMemory,  // in-process LRU hit
  kDisk,    // validated read of <root>/<key>.sckl
  kSolved,  // full Galerkin + eigensolve fallback
};

const char* to_string(FetchSource source);

/// One artifact fetch: the (shared, immutable) result plus provenance. The
/// config is the caller's own key.
struct FetchResult {
  std::shared_ptr<const core::KleResult> artifact;
  FetchSource source = FetchSource::kSolved;
  double seconds = 0.0;  // wall time of this fetch
};

/// Directory-listing entry of ls().
struct StoreEntry {
  std::string key;             // 16-hex-digit file stem
  std::uintmax_t file_bytes = 0;
  bool quarantined = false;    // true for <key>.sckl.bad evidence files
};

/// Tuning of one gc() sweep.
struct GcOptions {
  bool dry_run = false;            // plan and report, delete nothing
  double tmp_max_age_seconds = 0;  // orphaned tmp younger than this is kept
};

/// One file gc() deleted or (dry-run) would delete, with the reason.
struct GcCandidate {
  std::filesystem::path path;
  std::string reason;  // "orphaned tmp", "stale lock", "corrupt", ...
};

/// Outcome of one gc() sweep.
struct GcReport {
  std::vector<GcCandidate> candidates;  // everything eligible for deletion
  std::size_t removed = 0;              // actually deleted (0 under dry_run)
};

/// Content-hash keyed repository with an in-memory LRU front.
class KleArtifactStore {
 public:
  /// Opens (creating if needed) the repository rooted at `root`. With
  /// StoreOptions::fsck_on_open, runs a repairing recovery pass first.
  explicit KleArtifactStore(std::filesystem::path root,
                            const StoreOptions& options = {});

  /// Returns the artifact for `config`, consulting memory, then disk, then
  /// solving with `kernel` (and persisting the result). `kernel` must be the
  /// kernel `config` describes — describe_kernel() builds matching ids.
  /// Cold keys are serialized on an advisory per-key lock so concurrent
  /// callers — threads or processes — run the eigensolve exactly once.
  FetchResult get_or_compute(const KleArtifactConfig& config,
                             const kernels::CovarianceKernel& kernel);

  /// True when a validated artifact for `config` exists on disk.
  bool contains(const KleArtifactConfig& config) const;

  /// On-disk path an artifact for `config` lives at (whether or not it
  /// exists yet).
  std::filesystem::path path_for(const KleArtifactConfig& config) const;

  /// Advisory lock file guarding the solve of `config`'s key.
  std::filesystem::path lock_path_for(const KleArtifactConfig& config) const;

  /// All *.sckl entries currently in the repository (validity not checked),
  /// plus quarantined *.sckl.bad files flagged as such.
  std::vector<StoreEntry> ls() const;

  /// Sweeps the repository under the exclusive store lock: orphaned tmp
  /// files (older than GcOptions::tmp_max_age_seconds), stale lock files,
  /// artifacts that fail validation or whose content hash disagrees with
  /// their file name, and quarantined .sckl.bad files. Dry-run reports the
  /// plan without deleting.
  GcReport gc(const GcOptions& options);

  /// Convenience sweep with default options; returns files deleted.
  std::size_t gc() { return gc(GcOptions{}).removed; }

  /// Runs a recovery pass (recovery.h) over this root.
  FsckResult fsck(const FsckOptions& options = {}) const;

  /// In-memory cache counters.
  CacheStats cache_stats() const { return cache_.stats(); }

  /// Fault-reaction counters accumulated over this store's lifetime.
  StoreHealth health() const;

  /// Drops the in-memory cache (disk is untouched); for warm/cold timing.
  void drop_memory_cache() { cache_.clear(); }

  const std::filesystem::path& root() const { return root_; }

 private:
  /// Moves a broken artifact aside to <name>.bad; counts it.
  void quarantine(const std::filesystem::path& path);

  /// Durable atomic publish: unique tmp + fsync + rename + directory fsync.
  /// Throws kIoTransient on failure (tmp is cleaned up best-effort).
  void publish(const std::filesystem::path& path,
               const KleArtifactConfig& config, const core::KleResult& solved);

  /// Attempts a validated disk load of `key` at `path`; returns nullptr on
  /// miss and on failures (which are counted / quarantined as usual).
  std::shared_ptr<const core::KleResult> load_from_disk(
      std::uint64_t key, const std::filesystem::path& path);

  std::filesystem::path root_;
  StoreOptions options_;
  LruCache<std::uint64_t, core::KleResult> cache_;
  std::atomic<std::size_t> read_retries_{0};
  std::atomic<std::size_t> write_retries_{0};
  std::atomic<std::size_t> failed_reads_{0};
  std::atomic<std::size_t> failed_writes_{0};
  std::atomic<std::size_t> quarantined_{0};
  std::atomic<std::size_t> deduped_solves_{0};
};

}  // namespace sckl::store
