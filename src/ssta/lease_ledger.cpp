#include "ssta/lease_ledger.h"

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"

namespace sckl::ssta {

bool valid_run_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return id != "." && id != "..";
}

void LedgerHeader::encode(std::vector<std::uint8_t>& out) const {
  wire::put_u8(out, kLedgerHeaderTag);
  wire::put_u64(out, workload_key);
  wire::put_u64(out, num_samples);
  wire::put_u64(out, block_size);
  wire::put_u64(out, lease_blocks);
  wire::put_u64(out, seed);
  wire::put_u64(out, sketch_capacity);
  wire::put_u64(out, num_endpoints);
}

LedgerHeader LedgerHeader::decode(wire::ByteReader& r) {
  LedgerHeader h;
  h.workload_key = r.u64();
  h.num_samples = r.u64();
  h.block_size = r.u64();
  h.lease_blocks = r.u64();
  h.seed = r.u64();
  h.sketch_capacity = r.u64();
  h.num_endpoints = r.u64();
  return h;
}

bool LedgerHeader::operator==(const LedgerHeader& other) const {
  return workload_key == other.workload_key &&
         num_samples == other.num_samples && block_size == other.block_size &&
         lease_blocks == other.lease_blocks && seed == other.seed &&
         sketch_capacity == other.sketch_capacity &&
         num_endpoints == other.num_endpoints;
}

LeaseCoordinator::LeaseCoordinator(std::vector<Lease> leases,
                                   std::optional<store::RecordLog> log,
                                   double ttl_seconds,
                                   std::size_t num_endpoints,
                                   McRunStats& stats)
    : leases_(std::move(leases)),
      log_(std::move(log)),
      ttl_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(ttl_seconds))),
      num_endpoints_(num_endpoints),
      stats_(stats) {}

std::size_t LeaseCoordinator::claim() {
  std::lock_guard<std::mutex> lock(mutex_);
  const Clock::time_point now = Clock::now();
  for (std::size_t l = first_incomplete_locked(); l < leases_.size(); ++l) {
    Lease& lease = leases_[l];
    if (timed_out(lease, now)) expire_locked(lease);
    if (lease.state == LeaseState::kAvailable) {
      lease.state = LeaseState::kClaimed;
      lease.owner = 0;
      ++stats_.leases_claimed;
      obs::counter("sckl.ssta.mc.leases_claimed").add(1);
      return l;
    }
  }
  return npos;
}

std::vector<ClaimedLease> LeaseCoordinator::claim_remote(
    std::uint64_t worker, std::size_t max_leases) {
  require(worker != 0, "lease claim: remote worker id must be nonzero");
  std::vector<ClaimedLease> out;
  std::lock_guard<std::mutex> lock(mutex_);
  const Clock::time_point now = Clock::now();
  for (std::size_t l = first_incomplete_locked();
       l < leases_.size() && out.size() < max_leases; ++l) {
    Lease& lease = leases_[l];
    if (timed_out(lease, now)) expire_locked(lease);
    if (lease.state != LeaseState::kAvailable) continue;
    lease.state = LeaseState::kClaimed;
    lease.expiry = now + ttl_;
    lease.owner = worker;
    ++stats_.leases_remote_claimed;
    obs::counter("sckl.ssta.mc.remote.claims").add(1);
    out.push_back({l, lease.first_block, lease.num_blocks});
  }
  if (!out.empty()) bump_activity_locked();
  return out;
}

bool LeaseCoordinator::publish(std::size_t index,
                               detail::BlockPartial partial,
                               std::uint64_t parent_span_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Lease& lease = leases_[index];
  if (lease.state == LeaseState::kComplete) return true;
  if (robust::fault_injected(robust::FaultSite::kMcLeaseExpire) ||
      timed_out(lease, Clock::now())) {
    expire_locked(lease);
    return false;
  }
  commit_locked(lease, std::move(partial), parent_span_id);
  bump_activity_locked();
  return true;
}

bool LeaseCoordinator::publish_remote(std::uint64_t worker, std::size_t index,
                                      std::size_t first_block,
                                      std::size_t num_blocks,
                                      const detail::BlockPartial& partial) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= leases_.size())
    throw Error("lease publish: lease index " + std::to_string(index) +
                    " outside the run",
                ErrorCode::kPrecondition);
  Lease& lease = leases_[index];
  if (lease.first_block != first_block || lease.num_blocks != num_blocks)
    throw Error("lease publish: lease geometry mismatch (worker speaks a "
                "different run geometry)",
                ErrorCode::kPrecondition);
  if (partial.endpoint.size() != num_endpoints_)
    throw Error("lease publish: partial endpoint count mismatch",
                ErrorCode::kPrecondition);
  if (lease.state == LeaseState::kComplete) {
    // A slow first claimer finished after its lease was re-issued and
    // completed by someone else: identical bits, silently dedup.
    bump_activity_locked();
    return true;
  }
  if (lease.state != LeaseState::kClaimed) {
    // Reclaimed (or never re-claimed after a coordinator restart): the
    // worker's claim is gone; it must claim again.
    obs::counter("sckl.ssta.mc.remote.rejected").add(1);
    bump_activity_locked();
    return false;
  }
  if (robust::fault_injected(robust::FaultSite::kMcLeaseExpire) ||
      timed_out(lease, Clock::now())) {
    expire_locked(lease);
    obs::counter("sckl.ssta.mc.remote.rejected").add(1);
    bump_activity_locked();
    return false;
  }
  commit_locked(lease, partial, 0);
  ++stats_.leases_remote_published;
  obs::counter("sckl.ssta.mc.remote.published").add(1);
  static_cast<void>(worker);  // ownership deliberately unchecked, see header
  bump_activity_locked();
  return true;
}

std::size_t LeaseCoordinator::heartbeat(std::uint64_t worker) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Clock::time_point now = Clock::now();
  std::size_t extended = 0;
  for (Lease& lease : leases_) {
    if (lease.state != LeaseState::kClaimed || lease.owner != worker) continue;
    if (now >= lease.expiry) continue;  // too late — publish will be refused
    lease.expiry = now + ttl_;
    ++extended;
  }
  obs::counter("sckl.ssta.mc.remote.heartbeats").add(1);
  if (extended > 0) bump_activity_locked();
  return extended;
}

LeaseProgress LeaseCoordinator::progress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  LeaseProgress p;
  p.total = leases_.size();
  for (const Lease& lease : leases_) {
    if (lease.state == LeaseState::kComplete) ++p.complete;
    if (lease.state == LeaseState::kClaimed) ++p.claimed;
  }
  return p;
}

bool LeaseCoordinator::all_complete() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Lease& lease : leases_)
    if (lease.state != LeaseState::kComplete) return false;
  return true;
}

bool LeaseCoordinator::wait_for_remote_activity(std::uint64_t& last_seen,
                                                double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  const bool changed = activity_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [&] { return activity_ != last_seen; });
  last_seen = activity_;
  return changed;
}

std::uint64_t LeaseCoordinator::activity_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return activity_;
}

bool LeaseCoordinator::timed_out(const Lease& lease, Clock::time_point now) {
  return lease.state == LeaseState::kClaimed && lease.owner != 0 &&
         now >= lease.expiry;
}

std::size_t LeaseCoordinator::first_incomplete_locked() {
  while (first_incomplete_ < leases_.size() &&
         leases_[first_incomplete_].state == LeaseState::kComplete)
    ++first_incomplete_;
  return first_incomplete_;
}

void LeaseCoordinator::expire_locked(Lease& lease) {
  lease.state = LeaseState::kAvailable;
  lease.owner = 0;
  lease.was_reclaimed = true;
  ++stats_.leases_expired;
  obs::counter("sckl.ssta.mc.leases_expired").add(1);
}

void LeaseCoordinator::commit_locked(Lease& lease,
                                     detail::BlockPartial partial,
                                     std::uint64_t parent_span_id) {
  if (log_.has_value()) {
    obs::Span append_span("ssta.mc.ledger_append", parent_span_id);
    std::vector<std::uint8_t> payload;
    wire::put_u8(payload, kLedgerLeaseTag);
    wire::put_u64(payload, lease.first_block);
    wire::put_u64(payload, lease.num_blocks);
    partial.encode(payload);
    log_->append(payload);  // durable (or _Exit under mc_ledger_write)
    robust::crash_point(robust::FaultSite::kMcCoordinatorCrash);
    ++stats_.ledger_appends;
    obs::counter("sckl.ssta.mc.ledger_appends").add(1);
  }
  lease.partial = std::move(partial);
  lease.state = LeaseState::kComplete;
  if (lease.was_reclaimed) {
    ++stats_.leases_recomputed;
    obs::counter("sckl.ssta.mc.leases_recomputed").add(1);
  }
}

void LeaseCoordinator::bump_activity_locked() {
  ++activity_;
  activity_cv_.notify_all();
}

}  // namespace sckl::ssta
