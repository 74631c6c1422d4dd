#include "ssta/mc_run.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "store/file_lock.h"
#include "store/record_log.h"

namespace sckl::ssta {
namespace {

/// How long a distributed coordinator waits without any remote activity
/// (claim / publish / heartbeat) before computing a lease itself.
constexpr double kLocalFallbackSeconds = 0.5;

/// Calls share_coordinator(nullptr, nullptr) exactly once, including on the
/// exception paths — the serve registry must drop its pointer before the
/// coordinator object on our stack is destroyed.
class ShareGuard {
 public:
  explicit ShareGuard(
      const std::function<void(LeaseCoordinator*, const LedgerHeader*)>& hook)
      : hook_(hook) {}
  ~ShareGuard() { release(); }
  void release() {
    if (!released_) {
      released_ = true;
      hook_(nullptr, nullptr);
    }
  }

 private:
  const std::function<void(LeaseCoordinator*, const LedgerHeader*)>& hook_;
  bool released_ = false;
};

/// Replays a run's ledger into `leases`: a fresh ledger gets `header` as
/// its first record; an existing one must carry exactly `header`, and the
/// leases it records are marked complete (first record per lease wins —
/// later duplicates are identical bits from a slow pre-crash claimer).
void replay_ledger(store::RecordLog& log, const LedgerHeader& header,
                   const McRunOptions& run, std::vector<Lease>& leases,
                   McRunStats& stats) {
  const auto& records = log.records();
  if (records.empty()) {
    std::vector<std::uint8_t> payload;
    header.encode(payload);
    log.append(payload);
    ++stats.ledger_appends;
    obs::counter("sckl.ssta.mc.ledger_appends").add(1);
    return;
  }
  // ByteReader raises kCorruptArtifact on any truncated field — a CRC'd
  // record that fails to decode is a writer bug, not a torn write.
  wire::ByteReader first(records[0].data(), records[0].size(),
                         ErrorCode::kCorruptArtifact, "mc run ledger");
  if (first.u8() != kLedgerHeaderTag)
    throw Error("checkpointed mc: ledger does not start with a header",
                ErrorCode::kCorruptArtifact);
  const LedgerHeader on_disk = LedgerHeader::decode(first);
  if (!(on_disk == header))
    throw Error(
        "checkpointed mc: ledger '" + run.run_id +
            "' was written for a different workload or sampling "
            "geometry (workload_key / num_samples / block_size / "
            "lease_blocks / seed / sketch_capacity must all match)",
        ErrorCode::kPrecondition);
  for (std::size_t i = 1; i < records.size(); ++i) {
    wire::ByteReader r(records[i].data(), records[i].size(),
                       ErrorCode::kCorruptArtifact, "mc run ledger");
    if (r.u8() != kLedgerLeaseTag)
      throw Error("checkpointed mc: unexpected ledger record tag",
                  ErrorCode::kCorruptArtifact);
    const std::uint64_t first_block = r.u64();
    const std::uint64_t lease_blocks = r.u64();
    if (first_block % run.lease_blocks != 0 ||
        first_block / run.lease_blocks >= leases.size())
      throw Error("checkpointed mc: lease record outside the run",
                  ErrorCode::kCorruptArtifact);
    Lease& lease = leases[first_block / run.lease_blocks];
    if (lease_blocks != lease.num_blocks)
      throw Error("checkpointed mc: lease record geometry mismatch",
                  ErrorCode::kCorruptArtifact);
    if (lease.state == LeaseState::kComplete) continue;  // dedup
    lease.partial = detail::BlockPartial::decode(r);
    lease.state = LeaseState::kComplete;
  }
  std::size_t complete = 0;
  for (const Lease& lease : leases)
    if (lease.state == LeaseState::kComplete) ++complete;
  if (!run.resume && complete > 0)
    throw Error("checkpointed mc: ledger for run '" + run.run_id +
                    "' already holds " + std::to_string(complete) +
                    " completed lease(s); pass resume to continue it",
                ErrorCode::kPrecondition);
  stats.leases_resumed = complete;
  if (complete > 0)
    obs::counter("sckl.ssta.mc.leases_resumed").add(
        static_cast<std::uint64_t>(complete));
}

/// The one Monte Carlo runner behind both entry points. `run` == nullptr is
/// a plain run: one block per lease and a lease table without a ledger.
McSstaResult run_leases(const timing::StaEngine& engine,
                        const ParameterSamplers& samplers,
                        const McSstaOptions& options, const McRunOptions* run,
                        McRunStats* stats_out) {
  require(options.num_samples > 0, "mc ssta: no samples");
  require(options.block_size > 0, "mc ssta: empty block");
  require(options.lease_ttl_ms > 0, "mc ssta: lease_ttl_ms must be > 0");
  const std::size_t num_gates = engine.netlist().num_physical_gates();
  for (const auto* sampler : samplers) {
    require(sampler != nullptr, "mc ssta: missing sampler");
    require(sampler->num_locations() == num_gates,
            "mc ssta: sampler/netlist gate count mismatch");
  }
  if (run != nullptr) {
    require(!options.keep_samples,
            "checkpointed mc: keep_samples is not supported (resumed leases "
            "do not retain per-sample delays)");
    require(valid_run_id(run->run_id),
            "checkpointed mc: run_id must be non-empty [A-Za-z0-9._-]");
    require(!run->ledger_dir.empty(),
            "checkpointed mc: ledger_dir is required");
    require(run->lease_blocks > 0, "checkpointed mc: lease_blocks must be > 0");
  }

  obs::Span mc_span(run != nullptr ? "ssta.mc.checkpointed" : "ssta.mc");
  obs::counter(run != nullptr ? "sckl.ssta.mc.checkpointed_runs"
                              : "sckl.ssta.mc.runs")
      .add(1);
  obs::Stopwatch total;

  const std::size_t num_blocks = detail::num_blocks_for(options);
  const std::size_t lease_blocks = run != nullptr ? run->lease_blocks : 1;
  const std::size_t num_leases = (num_blocks + lease_blocks - 1) / lease_blocks;
  const std::size_t num_endpoints = engine.num_endpoints();
  std::vector<Lease> leases(num_leases);
  for (std::size_t l = 0; l < num_leases; ++l) {
    leases[l].first_block = l * lease_blocks;
    leases[l].num_blocks =
        std::min(lease_blocks, num_blocks - leases[l].first_block);
  }
  const LedgerHeader header{run != nullptr ? run->workload_key : 0,
                            options.num_samples, options.block_size,
                            lease_blocks, options.seed,
                            options.sketch_capacity, num_endpoints};

  McRunStats stats;
  stats.leases_total = num_leases;
  // Single-writer discipline: the lock is held until the run returns.
  std::optional<store::FileLock> lock;
  std::optional<store::RecordLog> log;
  if (run != nullptr) {
    std::filesystem::create_directories(run->ledger_dir);
    lock = store::FileLock::try_acquire(
        run->ledger_dir / (run->run_id + ".lock"),
        store::FileLock::Mode::kExclusive);
    if (!lock.has_value())
      throw Error("checkpointed mc: run '" + run->run_id +
                      "' is locked by another live process",
                  ErrorCode::kOverloaded);
    log = store::RecordLog::open(run->ledger_dir / (run->run_id + ".ledger"));
    log->set_crash_site(robust::FaultSite::kMcLedgerWrite);
    stats.recovered_torn_tail = log->recovered_torn_tail();
    replay_ledger(*log, header, *run, leases, stats);
  }

  const std::size_t remaining = num_leases - stats.leases_resumed;
  std::size_t num_threads =
      std::min(ThreadPool::resolve_num_threads(options.num_threads),
               std::max<std::size_t>(remaining, 1));
  LeaseCoordinator coordinator(
      std::move(leases), std::move(log),
      static_cast<double>(options.lease_ttl_ms) / 1000.0, num_endpoints,
      stats);
  McSstaResult result;
  if (options.keep_samples)
    result.worst_delay_samples.assign(options.num_samples, 0.0);
  std::vector<double>* samples_out =
      options.keep_samples ? &result.worst_delay_samples : nullptr;

  // Pool workers run on their own threads, so the implicit thread-local
  // parenting cannot see `mc_span`; capture its id and parent each worker's
  // span under it explicitly. The steal-latency histogram measures the time
  // a worker spends claiming its next lease off the lease table.
  const std::uint64_t mc_span_id = obs::Span::current_id();
  static obs::Counter& blocks_claimed = obs::counter("sckl.ssta.mc.blocks");
  static obs::Histogram& steal_ns = obs::histogram("sckl.ssta.mc.steal_ns");
  static obs::Histogram& busy_us = obs::histogram("sckl.ssta.mc.worker_busy_us");
  std::atomic<bool> was_cancelled{false};
  // Polled once per claim: an already-claimed lease always completes.
  const auto cancelled = [&] {
    if (!options.cancelled || !options.cancelled()) return false;
    was_cancelled.store(true, std::memory_order_relaxed);
    return true;
  };
  // Claims one lease, folds its blocks and publishes it; false when nothing
  // was claimable. A publish the lease table refuses (a forced expiry)
  // returns the lease to Available, and a later claim recomputes it.
  const auto claim_and_compute = [&](detail::BlockScratch& scratch) {
    obs::Stopwatch steal;
    const std::size_t l = coordinator.claim();
    if (obs::trace_enabled()) steal_ns.record(steal.seconds() * 1e9);
    if (l == LeaseCoordinator::npos) return false;
    const Lease& lease = coordinator.leases()[l];
    blocks_claimed.add(lease.num_blocks);
    std::optional<detail::BlockPartial> partial =
        detail::compute_lease_partial(engine, samplers, options,
                                      lease.first_block, lease.num_blocks,
                                      num_endpoints, scratch, samples_out);
    coordinator.publish(l, std::move(*partial), mc_span_id);
    return true;
  };

  if (run != nullptr && run->share_coordinator && remaining > 0) {
    // Distributed coordinator: remote workers do the computing; this
    // thread only waits, reclaims, and falls back to local compute when
    // the workers go quiet (graceful degradation — the run always ends).
    num_threads = 1;
    obs::Span dist_span("ssta.mc.dist_coordinator", mc_span_id);
    run->share_coordinator(&coordinator, &header);
    ShareGuard unshare(run->share_coordinator);
    detail::BlockScratch scratch;
    std::uint64_t seen = coordinator.activity_count();
    while (!coordinator.all_complete() && !cancelled()) {
      if (coordinator.wait_for_remote_activity(seen, kLocalFallbackSeconds))
        continue;
      if (claim_and_compute(scratch))
        obs::counter("sckl.ssta.mc.remote.local_fallback").add(1);
    }
    // Stop accepting remote traffic before the final fold reads the table.
    unshare.release();
  } else if (remaining > 0) {
    // A 1-thread pool runs the job inline on the caller.
    ThreadPool pool(num_threads);
    pool.run([&](std::size_t /*worker_index*/) {
      obs::Span worker_span("ssta.mc.worker", mc_span_id);
      obs::Stopwatch busy;
      detail::BlockScratch scratch;
      while (!cancelled() && claim_and_compute(scratch)) {
      }
      if (obs::trace_enabled()) busy_us.record(busy.seconds() * 1e6);
    });
  }
  if (was_cancelled.load(std::memory_order_relaxed))
    throw Error("mc ssta: cancelled before completion (a checkpointed run "
                "keeps its completed leases; resume to continue)",
                ErrorCode::kDeadlineExceeded);
  for (const Lease& lease : coordinator.leases())
    ensure(lease.state == LeaseState::kComplete,
           "mc ssta: worker pool exited with an incomplete lease");

  // Final fold in lease order (invariant #3): ledger-loaded, locally
  // computed, and remotely published lease partials are bitwise
  // interchangeable here.
  result.worst_delay_sketch = QuantileSketch(options.sketch_capacity);
  result.threads_used = num_threads;
  result.endpoint.resize(num_endpoints);
  for (const Lease& lease : coordinator.leases()) {
    result.worst_delay.merge(lease.partial.worst_delay);
    result.worst_delay_sketch.merge(lease.partial.worst_delay_sketch);
    for (std::size_t e = 0; e < num_endpoints; ++e)
      result.endpoint[e].merge(lease.partial.endpoint[e]);
    result.sampling_seconds += lease.partial.sampling_seconds;
    result.sta_seconds += lease.partial.sta_seconds;
  }
  result.total_seconds = total.seconds();
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace

McSstaResult run_monte_carlo_ssta(const timing::StaEngine& engine,
                                  const ParameterSamplers& samplers,
                                  const McSstaOptions& options) {
  return run_leases(engine, samplers, options, nullptr, nullptr);
}

McSstaResult run_checkpointed_monte_carlo_ssta(
    const timing::StaEngine& engine, const ParameterSamplers& samplers,
    const McSstaOptions& options, const McRunOptions& run,
    McRunStats* stats_out) {
  return run_leases(engine, samplers, options, &run, stats_out);
}

}  // namespace sckl::ssta
