// Checkpointed, resumable Monte Carlo SSTA: the one runner with a ledger.
//
// Every Monte Carlo run is a lease run (mc_ssta.h): blocks are grouped into
// fixed *leases*, and worker threads claim, compute, and publish them. A
// plain run keeps its lease table in memory. Every sample is a pure
// function of its index, so nothing about a run is inherently lost when the
// process dies — except the work already done. The checkpointed runner adds
// exactly that durability: a published lease's merged BlockPartial is
// appended to a durable append-only *run ledger* (store/record_log.h,
// fsync'd per record), and a resumed run loads completed leases from the
// ledger and recomputes only the rest. The lease table, state machine, and
// ledger appends live in lease_ledger.h (LeaseCoordinator) so the serve
// daemon can hand the same leases to remote workers.
//
// Resume invariant (ctest-gated by mc_resume_kill_loop): for a fixed
// (workload, num_samples, block_size, lease_blocks, seed, sketch_capacity),
// a run killed at ANY instant and then resumed — any number of times, at
// any thread count — produces bit-identical statistics (mean, M2, min/max,
// every endpoint accumulator, and the full quantile-sketch state) to an
// uninterrupted run. Three properties compose into the guarantee:
//
//   1. Per-lease partials are pure: lease L's partial is the fold, in block
//      order, of its blocks' partials (detail::compute_lease_partial, the
//      one such fold), and each block partial is a pure function of
//      (workload, options, block index). Recomputing a lost lease
//      reproduces the exact bits the dead worker would have written.
//   2. The ledger is crash-safe: records are CRC-framed and fsync'd; a
//      crash mid-append tears at most the tail record, which open()
//      truncates away. Committed leases are never lost or corrupted.
//   3. The final fold nesting is fixed: the result folds lease partials in
//      lease order (NOT block order across leases — Welford merges are not
//      bit-associative, so the nesting itself is part of the contract).
//      Ledger-loaded and freshly computed lease partials are bitwise
//      interchangeable, so any mix folds to the same result.
//
// The same three properties make the DISTRIBUTED extension safe: a remote
// worker that claims a lease over the serve protocol computes the same
// pure partial with the same compute_lease_partial, and whichever claimer
// publishes first commits the same bits (mc_dist_kill_loop gates this
// across worker kills, coordinator kills, and heartbeat loss). See
// DESIGN.md §12.
//
// Single-writer discipline: the runner holds an exclusive flock on
// <ledger_dir>/<run_id>.lock for the whole run, so two processes can never
// append to one ledger concurrently — and because flock dies with its
// holder, a kill -9'd run leaves the ledger immediately resumable. Remote
// workers never touch the ledger: their partials travel over RPC and only
// the coordinator appends.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>

#include "ssta/lease_ledger.h"
#include "ssta/mc_ssta.h"

namespace sckl::ssta {

/// Options of the checkpointed runner, on top of McSstaOptions (which
/// carries the lease TTL, McSstaOptions::lease_ttl_ms).
struct McRunOptions {
  /// Identifies the run's ledger (file names derive from it). Restricted to
  /// [A-Za-z0-9._-] so it can never escape ledger_dir.
  std::string run_id;

  /// Directory holding <run_id>.ledger and <run_id>.lock; created if
  /// missing. The experiment pipeline uses <store_root>/mc_runs.
  std::filesystem::path ledger_dir;

  /// Blocks per lease — the unit of checkpointing. One ledger append (and
  /// one fsync) per lease, so this trades durability granularity against
  /// I/O. Part of the resume contract: must match across resumes.
  std::size_t lease_blocks = 4;

  /// False: the ledger must not already contain lease records (guards
  /// against silently continuing a run the caller thought was fresh).
  /// True: completed leases are loaded and skipped.
  bool resume = false;

  /// Content hash binding the ledger to its workload (circuit, kernel,
  /// KLE artifact...). A resume against a ledger whose recorded key
  /// differs throws kPrecondition — resuming someone else's samples would
  /// silently corrupt the statistics.
  std::uint64_t workload_key = 0;

  /// Distributed-run hook. When set, the runner becomes a COORDINATOR:
  /// after replaying the ledger it calls the hook with its live
  /// LeaseCoordinator and LedgerHeader (so the serve daemon can register
  /// them for ClaimLeases / PublishPartial / Heartbeat / RunStatus), and
  /// calls it again with (nullptr, nullptr) — before the coordinator is
  /// destroyed — once no further remote publishes may be accepted. Between
  /// the two calls the runner waits for remote progress and degrades
  /// gracefully: whenever no remote activity (claim / publish / heartbeat)
  /// arrives for half a second it claims a lease itself and computes it
  /// locally, so a run finishes even if every worker vanishes.
  std::function<void(LeaseCoordinator*, const LedgerHeader*)>
      share_coordinator;
};

/// Runs Monte Carlo SSTA with durable lease checkpointing: the runner of
/// run_monte_carlo_ssta with the run's lock, ledger replay, and
/// lease_blocks. Same sampler preconditions; additionally requires a valid
/// run_id/ledger_dir and rejects options.keep_samples (per-sample retention
/// is incompatible with skipping resumed leases). Throws:
///   kPrecondition — run_id invalid, ledger belongs to another workload or
///                   different sampling options, or a fresh (resume=false)
///                   run found an existing ledger with lease records;
///   kOverloaded   — another live process holds the run's lock;
///   kDeadlineExceeded — options.cancelled fired (completed leases stay
///                   durable; resume later picks up from them).
McSstaResult run_checkpointed_monte_carlo_ssta(
    const timing::StaEngine& engine, const ParameterSamplers& samplers,
    const McSstaOptions& options, const McRunOptions& run,
    McRunStats* stats = nullptr);

}  // namespace sckl::ssta
