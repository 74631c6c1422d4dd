// The lease table behind every Monte Carlo run, and the durable ledger
// behind checkpointed ones.
//
// A run's sample blocks are grouped into fixed leases; LeaseCoordinator
// tracks the lease state machine in memory and, for a checkpointed run,
// owns the append-only ledger (store/record_log.h). A plain run is the same
// table with one block per lease and no ledger. Worker threads inside the
// process claim leases with claim(); the serve-protocol coordinator also
// hands leases to workers on other machines (claim_remote), keeps them
// alive while the worker heartbeats (heartbeat), and accepts their finished
// partials (publish_remote). A remote worker is just a claimer whose
// liveness signal arrives over RPC instead of being implied by a live
// thread, so only remote claims time out:
//
//   Available ──claim/claim_remote──▶ Claimed(owner, expiry)
//        ▲                                │            │
//        └────────── expired ────────────┘         publish
//          (remote claim: no heartbeat within TTL)     │
//                                                      ▼
//                                                  Complete
//
// Recompute-on-reclaim preserves bit-exactness because lease partials are
// pure functions of (workload, options, block range): whichever claimer
// publishes first commits the exact bits any other claimer would have,
// so late duplicates are discarded without changing the fold.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/wire.h"
#include "ssta/mc_ssta.h"
#include "store/record_log.h"

namespace sckl::ssta {

/// Ledger record tags: one header record, then one record per lease.
constexpr std::uint8_t kLedgerHeaderTag = 1;
constexpr std::uint8_t kLedgerLeaseTag = 2;

/// True when `id` is non-empty, at most 128 chars of [A-Za-z0-9._-], and
/// not "." / ".." — i.e. safe to embed in ledger file names.
bool valid_run_id(const std::string& id);

/// The sampling-geometry fields a ledger is bound to. Everything here must
/// match between the run that wrote a ledger and the run resuming it —
/// sample indices, block boundaries, and the fold nesting all derive from
/// these values. Remote workers receive these same fields in the
/// ClaimLeases reply and must use them verbatim.
struct LedgerHeader {
  std::uint64_t workload_key = 0;
  std::uint64_t num_samples = 0;
  std::uint64_t block_size = 0;
  std::uint64_t lease_blocks = 0;
  std::uint64_t seed = 0;
  std::uint64_t sketch_capacity = 0;
  std::uint64_t num_endpoints = 0;

  void encode(std::vector<std::uint8_t>& out) const;
  /// Decodes the body; the caller has already consumed kLedgerHeaderTag.
  static LedgerHeader decode(wire::ByteReader& r);
  bool operator==(const LedgerHeader& other) const;
};

enum class LeaseState { kAvailable, kClaimed, kComplete };

struct Lease {
  std::size_t first_block = 0;
  std::size_t num_blocks = 0;
  LeaseState state = LeaseState::kAvailable;
  std::chrono::steady_clock::time_point expiry{};  // remote claims only
  std::uint64_t owner = 0;           // 0 = a local worker thread
  bool was_reclaimed = false;        // a prior claim on it expired
  detail::BlockPartial partial;      // valid once kComplete
};

/// What the lease runner did, for reporting and tests.
struct McRunStats {
  std::size_t leases_total = 0;
  std::size_t leases_resumed = 0;   // loaded complete from the ledger
  std::size_t leases_claimed = 0;   // claimed by local worker threads
  std::size_t leases_expired = 0;   // reclaimed from an expired claim
  std::size_t leases_recomputed = 0;  // completions of reclaimed leases
  std::size_t leases_remote_claimed = 0;    // handed to remote workers
  std::size_t leases_remote_published = 0;  // committed by remote workers
  std::size_t ledger_appends = 0;
  bool recovered_torn_tail = false;  // open() truncated a torn record
};

/// One lease handed to a remote worker by claim_remote.
struct ClaimedLease {
  std::size_t index = 0;
  std::size_t first_block = 0;
  std::size_t num_blocks = 0;
};

/// Snapshot of the lease table, for RunStatus and progress decisions.
struct LeaseProgress {
  std::size_t total = 0;
  std::size_t complete = 0;
  std::size_t claimed = 0;
};

/// Tracks lease states and, when given a ledger, owns its appends. One
/// mutex covers the lease table, the ledger, and the stats — publishing a
/// lease is a single critical section, so the ledger order always matches
/// completion order. All methods are thread-safe; leases() is only safe
/// once every claimer (local threads and the serve registry) has quiesced.
class LeaseCoordinator {
 public:
  /// `log` is the run's ledger, or nullopt for an in-memory run whose
  /// commits append nothing. `ttl_seconds` bounds how long a remote claim
  /// may go without a completion or heartbeat before it is reclaimed;
  /// `num_endpoints` validates remote partials before they touch the
  /// ledger.
  LeaseCoordinator(std::vector<Lease> leases,
                   std::optional<store::RecordLog> log, double ttl_seconds,
                   std::size_t num_endpoints, McRunStats& stats);

  /// Claims the next available lease for a local thread (reclaiming any
  /// time-expired remote claim on the way); returns its index or npos when
  /// nothing remains claimable. A local claim never times out: a live
  /// thread of this process holds it.
  std::size_t claim();

  /// Remote claim: hands up to `max_leases` available leases to `worker`
  /// (nonzero), reclaiming expired claims on the way. Each claim starts a
  /// fresh TTL window that heartbeat() extends.
  std::vector<ClaimedLease> claim_remote(std::uint64_t worker,
                                         std::size_t max_leases);

  /// Publishes a finished local lease: appends its record durably (when
  /// there is a ledger), then marks it complete. Returns false when the
  /// mc_lease_expire fault fired — the lease goes back to Available and the
  /// completion is discarded, exactly what happens to a remote worker whose
  /// lease a coordinator already gave away. A lease someone else already
  /// completed is silently discarded too (same bits).
  bool publish(std::size_t index, detail::BlockPartial partial,
               std::uint64_t parent_span_id);

  /// Remote publish. Validates the wire-supplied geometry against the
  /// lease table (kPrecondition on mismatch — a worker speaking about a
  /// different run geometry), then commits like publish(). Returns false
  /// when the lease is no longer claimed or the claim expired: the worker
  /// must discard its partial and claim again. Ownership is deliberately
  /// NOT checked — a slow original claimer's bits are identical to the
  /// re-claimer's, and first completion wins.
  bool publish_remote(std::uint64_t worker, std::size_t index,
                      std::size_t first_block, std::size_t num_blocks,
                      const detail::BlockPartial& partial);

  /// Extends the expiry of every lease currently claimed by `worker`;
  /// returns how many were extended. An already-expired claim is not
  /// revived — the worker learns its lease is gone when publish fails.
  std::size_t heartbeat(std::uint64_t worker);

  LeaseProgress progress() const;
  bool all_complete() const;

  /// Blocks until remote activity (claim / publish / heartbeat) moves the
  /// activity counter past `last_seen`, or `timeout_seconds` elapses.
  /// Updates `last_seen` and returns whether anything happened — the
  /// local-fallback loop uses "false" as its cue to start computing.
  bool wait_for_remote_activity(std::uint64_t& last_seen,
                                double timeout_seconds);
  std::uint64_t activity_count() const;

  const std::vector<Lease>& leases() const { return leases_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  using Clock = std::chrono::steady_clock;

  /// Remote claims past their expiry time out; local claims never do.
  static bool timed_out(const Lease& lease, Clock::time_point now);
  void expire_locked(Lease& lease);
  /// Index of the first lease not yet complete. Leases never leave
  /// kComplete, so claims scan from here and stay O(leases in flight)
  /// rather than O(leases).
  std::size_t first_incomplete_locked();
  /// Appends the lease record (when there is a ledger) and marks the lease
  /// complete. The mc_coordinator_crash site fires right after the durable
  /// append — the worst instant for a coordinator to die, since the commit
  /// is on disk but nothing in memory (or on any worker) knows yet.
  void commit_locked(Lease& lease, detail::BlockPartial partial,
                     std::uint64_t parent_span_id);
  void bump_activity_locked();

  mutable std::mutex mutex_;
  std::condition_variable activity_cv_;
  std::uint64_t activity_ = 0;
  std::vector<Lease> leases_;
  std::size_t first_incomplete_ = 0;
  std::optional<store::RecordLog> log_;
  Clock::duration ttl_;
  std::size_t num_endpoints_ = 0;
  McRunStats& stats_;
};

}  // namespace sckl::ssta
