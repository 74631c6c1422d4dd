#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

#include "obs/stopwatch.h"

#if defined(__unix__) || defined(__APPLE__)
#include <ctime>
#define SCKL_OBS_HAS_THREAD_CPUTIME 1
#endif

namespace sckl::obs {

std::int64_t thread_cpu_ns() {
#ifdef SCKL_OBS_HAS_THREAD_CPUTIME
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
#endif
  return 0;
}

namespace {

using SteadyClock = std::chrono::steady_clock;

// Per-thread list of finished spans. Each shard has its own mutex so the
// owning thread's appends never contend with anything except a concurrent
// snapshot; there is no global lock on the span close path. Shards are
// heap-allocated and owned by the registry so records survive thread exit.
struct Shard {
  std::mutex mu;
  std::vector<SpanRecord> records;
  std::uint32_t thread_index = 0;
};

struct Registry {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_span_id{1};
  std::atomic<std::uint32_t> next_thread_index{0};
  SteadyClock::time_point epoch = SteadyClock::now();
  std::mutex mu;  // guards `shards` (the list itself) and `epoch`.
  std::vector<std::unique_ptr<Shard>> shards;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during static dtors
  return *r;
}

Shard& local_shard() {
  thread_local Shard* shard = [] {
    auto owned = std::make_unique<Shard>();
    Shard* raw = owned.get();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    raw->thread_index = r.next_thread_index.fetch_add(1, std::memory_order_relaxed);
    r.shards.push_back(std::move(owned));
    return raw;
  }();
  return *shard;
}

// Innermost-open-span stack. Fixed capacity: deeper nesting than this keeps
// timing correctly but parents further children under the 64th ancestor.
struct SpanStack {
  std::uint64_t ids[64];
  int depth = 0;
};

SpanStack& local_stack() {
  thread_local SpanStack stack;
  return stack;
}

std::int64_t now_wall_ns() {
  Registry& r = registry();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                              r.epoch)
      .count();
}

}  // namespace

void trace_enable(bool on) {
  registry().enabled.store(on, std::memory_order_relaxed);
}

bool trace_enabled() {
  return registry().enabled.load(std::memory_order_relaxed);
}

bool trace_env_requested() {
  const char* v = std::getenv("SCKL_TRACE");
  if (v == nullptr || *v == '\0') return false;
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return !(s == "0" || s == "false" || s == "off" || s == "no");
}

void trace_reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& shard : r.shards) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->records.clear();
  }
  r.epoch = SteadyClock::now();
}

std::vector<SpanRecord> trace_snapshot() {
  Registry& r = registry();
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& shard : r.shards) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    out.insert(out.end(), shard->records.begin(), shard->records.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

Span::Span(const char* name) {
  if (!trace_enabled()) return;
  SpanStack& stack = local_stack();
  std::uint64_t parent = stack.depth > 0 ? stack.ids[stack.depth - 1] : 0;
  open(name, parent);
}

Span::Span(const char* name, std::uint64_t parent_id) {
  if (!trace_enabled()) return;
  open(name, parent_id);
}

void Span::open(const char* name, std::uint64_t parent_id) {
  Registry& r = registry();
  id_ = r.next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent_id;
  name_ = name;
  SpanStack& stack = local_stack();
  if (stack.depth < 64) stack.ids[stack.depth] = id_;
  ++stack.depth;
  start_wall_ns_ = now_wall_ns();
  start_cpu_ns_ = thread_cpu_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecord rec;
  rec.id = id_;
  rec.parent = parent_;
  rec.name = name_;
  rec.tag = tag_;
  rec.wall_ns = now_wall_ns() - start_wall_ns_;
  rec.cpu_ns = thread_cpu_ns() - start_cpu_ns_;
  rec.start_ns = start_wall_ns_;
  SpanStack& stack = local_stack();
  if (stack.depth > 0) --stack.depth;
  Shard& shard = local_shard();
  rec.thread = shard.thread_index;
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.records.push_back(rec);
}

std::uint64_t Span::current_id() {
  if (!trace_enabled()) return 0;
  SpanStack& stack = local_stack();
  int usable = std::min(stack.depth, 64);
  return usable > 0 ? stack.ids[usable - 1] : 0;
}

}  // namespace sckl::obs
