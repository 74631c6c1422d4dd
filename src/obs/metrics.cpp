#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace sckl::obs {
namespace {

// Sequential small thread index for shard selection. Using a counter instead
// of hashing std::thread::id keeps pool workers on distinct shards.
int shard_index() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(idx % 16);
}

double bits_to_double(std::uint64_t b) { return std::bit_cast<double>(b); }
std::uint64_t double_to_bits(double d) { return std::bit_cast<std::uint64_t>(d); }

struct MetricSlot {
  MetricRow::Kind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct MetricsRegistry {
  std::mutex mu;
  std::map<std::string, MetricSlot> slots;  // node-stable: pointers never move
};

MetricsRegistry& metrics_registry() {
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

int value_bucket(double v) {
  if (!(v > 0.0)) return 0;
  int e = static_cast<int>(std::ceil(std::log2(v)));
  return std::clamp(e + 1, 1, 63);  // bucket i holds (2^(i-2), 2^(i-1)]
}

}  // namespace

void Counter::add(std::uint64_t delta) {
  shards_[shard_index()].v.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Gauge::set(double v) {
  bits_.store(double_to_bits(v), std::memory_order_relaxed);
}

double Gauge::value() const {
  return bits_to_double(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram()
    : min_bits_(double_to_bits(std::numeric_limits<double>::infinity())),
      max_bits_(double_to_bits(-std::numeric_limits<double>::infinity())) {}

void Histogram::record(double v) {
  if (std::isnan(v)) return;
  buckets_[value_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loops for sum/min/max; contention here is bounded by record() rate,
  // which for our call sites is per-block / per-solve, not per-element.
  std::uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(cur, double_to_bits(bits_to_double(cur) + v),
                                          std::memory_order_relaxed)) {
  }
  cur = min_bits_.load(std::memory_order_relaxed);
  while (bits_to_double(cur) > v &&
         !min_bits_.compare_exchange_weak(cur, double_to_bits(v),
                                          std::memory_order_relaxed)) {
  }
  cur = max_bits_.load(std::memory_order_relaxed);
  while (bits_to_double(cur) < v &&
         !max_bits_.compare_exchange_weak(cur, double_to_bits(v),
                                          std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = bits_to_double(sum_bits_.load(std::memory_order_relaxed));
  for (int i = 0; i < 64; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  if (out.count > 0) {
    out.min = bits_to_double(min_bits_.load(std::memory_order_relaxed));
    out.max = bits_to_double(max_bits_.load(std::memory_order_relaxed));
    out.mean = out.sum / static_cast<double>(out.count);
  }
  return out;
}

double HistogramSnapshot::quantile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (int i = 0; i < 64; ++i) {
    seen += buckets[i];
    if (seen >= target) {
      // Upper edge of bucket i; bucket 0 is the [0, 1] catch-all (and
      // anything that rounded down), report its edge as min.
      return i == 0 ? min : std::ldexp(1.0, i - 1);
    }
  }
  return max;
}

namespace {

MetricSlot& slot_for(const std::string& name, MetricRow::Kind kind) {
  MetricsRegistry& r = metrics_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.slots.find(name);
  if (it == r.slots.end()) {
    MetricSlot slot;
    slot.kind = kind;
    switch (kind) {
      case MetricRow::Kind::kCounter:
        slot.counter = std::make_unique<Counter>();
        break;
      case MetricRow::Kind::kGauge:
        slot.gauge = std::make_unique<Gauge>();
        break;
      case MetricRow::Kind::kHistogram:
        slot.histogram = std::make_unique<Histogram>();
        break;
    }
    it = r.slots.emplace(name, std::move(slot)).first;
  }
  return it->second;
}

}  // namespace

Counter& counter(const std::string& name) {
  return *slot_for(name, MetricRow::Kind::kCounter).counter;
}

Gauge& gauge(const std::string& name) {
  return *slot_for(name, MetricRow::Kind::kGauge).gauge;
}

Histogram& histogram(const std::string& name) {
  return *slot_for(name, MetricRow::Kind::kHistogram).histogram;
}

std::vector<MetricRow> metrics_snapshot() {
  MetricsRegistry& r = metrics_registry();
  std::vector<MetricRow> out;
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& [name, slot] : r.slots) {
    MetricRow row;
    row.name = name;
    row.kind = slot.kind;
    switch (slot.kind) {
      case MetricRow::Kind::kCounter:
        row.count = slot.counter->value();
        row.value = static_cast<double>(row.count);
        break;
      case MetricRow::Kind::kGauge:
        row.value = slot.gauge->value();
        break;
      case MetricRow::Kind::kHistogram:
        row.histogram = slot.histogram->snapshot();
        row.count = row.histogram.count;
        row.value = row.histogram.mean;
        break;
    }
    out.push_back(std::move(row));
  }
  return out;
}

void metrics_reset() {
  MetricsRegistry& r = metrics_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, slot] : r.slots) {
    switch (slot.kind) {
      case MetricRow::Kind::kCounter:
        slot.counter = std::make_unique<Counter>();
        break;
      case MetricRow::Kind::kGauge:
        slot.gauge = std::make_unique<Gauge>();
        break;
      case MetricRow::Kind::kHistogram:
        slot.histogram = std::make_unique<Histogram>();
        break;
    }
  }
}

void register_standard_metrics() {
  // Solver layer.
  counter("sckl.core.kle_solves");
  counter("sckl.core.kle_fallbacks");
  counter("sckl.core.kle_matfree_solves");
  counter("sckl.core.kle_matfree_fallbacks");
  counter("sckl.core.clamped_eigenvalues");
  counter("sckl.core.matfree.exact_matvecs");
  counter("sckl.linalg.hmat.builds");
  counter("sckl.linalg.hmat.matvecs");
  counter("sckl.linalg.hmat.lowrank_blocks");
  counter("sckl.linalg.hmat.dense_blocks");
  counter("sckl.linalg.hmat.compressed_bytes");
  counter("sckl.linalg.hmat.rank_cap_hits");
  counter("sckl.linalg.hmat.aca_restarts");
  counter("sckl.linalg.lanczos.solves");
  counter("sckl.linalg.lanczos.iterations");
  counter("sckl.linalg.lanczos.matvecs");
  counter("sckl.linalg.lanczos.restarts");
  counter("sckl.linalg.dense_eigen.solves");
  counter("sckl.linalg.cholesky.factorizations");
  counter("sckl.linalg.cholesky.jitter_retries");
  counter("sckl.mesh.refine.meshes");
  counter("sckl.mesh.refine.insertions");
  gauge("sckl.mesh.refine.triangles");
  // Store layer.
  counter("sckl.store.cache.hits");
  counter("sckl.store.cache.misses");
  counter("sckl.store.fetch.memory");
  counter("sckl.store.fetch.disk");
  counter("sckl.store.fetch.solved");
  counter("sckl.store.read_retries");
  counter("sckl.store.write_retries");
  counter("sckl.store.failed_reads");
  counter("sckl.store.failed_writes");
  counter("sckl.store.quarantined");
  counter("sckl.store.deduped_solves");
  counter("sckl.store.fsck.runs");
  // Sampling + MC layer.
  counter("sckl.field.samples.kle");
  counter("sckl.field.samples.cholesky");
  counter("sckl.ssta.mc.runs");
  counter("sckl.ssta.mc.blocks");
  histogram("sckl.ssta.mc.steal_ns");
  histogram("sckl.ssta.mc.worker_busy_us");
  // Checkpointed MC (durable run ledger + lease coordinator).
  counter("sckl.ssta.mc.checkpointed_runs");
  counter("sckl.ssta.mc.ledger_appends");
  counter("sckl.ssta.mc.leases_claimed");
  counter("sckl.ssta.mc.leases_expired");
  counter("sckl.ssta.mc.leases_recomputed");
  counter("sckl.ssta.mc.leases_resumed");
  // Fault injection.
  counter("sckl.robust.faults.hits");
  counter("sckl.robust.faults.injected");
  // Serve layer.
  counter("sckl.serve.requests");
  counter("sckl.serve.replies.ok");
  counter("sckl.serve.replies.error");
  counter("sckl.serve.rejected.overloaded");
  counter("sckl.serve.rejected.deadline");
  counter("sckl.serve.rejected.protocol");
  counter("sckl.serve.rejected.row_limit");
  counter("sckl.serve.rejected.reply_bytes");
  counter("sckl.serve.connections");
  counter("sckl.serve.connections_reaped");
  counter("sckl.serve.sampler_cache.hits");
  counter("sckl.serve.sampler_cache.misses");
  gauge("sckl.serve.queue_depth");
  histogram("sckl.serve.request_us");
}

}  // namespace sckl::obs
