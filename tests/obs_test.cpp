// Observability layer: span nesting and cross-thread parenting, metrics
// shard-fold correctness under concurrency, the disabled-mode
// zero-allocation guarantee, and the sckl-trace-v1 JSON exporter.
//
// This suite runs under the TSan CI job: the span shards, counter shards,
// and histogram CAS loops must all be clean under the race detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

// Global allocation counter for the zero-allocation check. Counting is
// always on; the test reads the delta across a disabled-tracing window.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sckl {
namespace {

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace_enable(true);
    obs::trace_reset();
  }
  void TearDown() override { obs::trace_enable(false); }

  std::map<std::string, obs::SpanRecord> by_name() {
    std::map<std::string, obs::SpanRecord> out;
    for (const obs::SpanRecord& r : obs::trace_snapshot()) out[r.name] = r;
    return out;
  }
};

TEST_F(TraceFixture, SpansNestWithinOneThread) {
  {
    obs::Span outer("outer");
    {
      obs::Span middle("middle");
      obs::Span inner("inner");
    }
    obs::Span sibling("sibling");
  }
  auto spans = by_name();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans["outer"].parent, 0u);
  EXPECT_EQ(spans["middle"].parent, spans["outer"].id);
  EXPECT_EQ(spans["inner"].parent, spans["middle"].id);
  EXPECT_EQ(spans["sibling"].parent, spans["outer"].id);
  EXPECT_GE(spans["outer"].wall_ns, spans["middle"].wall_ns);
}

TEST_F(TraceFixture, SpanRecordsWallAndCpuTime) {
  {
    obs::Span span("busy");
    volatile double sink = 0.0;
    for (int i = 0; i < 2000000; ++i) sink = sink + std::sqrt(double(i));
  }
  auto spans = by_name();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GT(spans["busy"].wall_ns, 0);
  // CPU time of a compute loop tracks wall time (same order of magnitude).
  EXPECT_GT(spans["busy"].cpu_ns, spans["busy"].wall_ns / 20);
}

TEST_F(TraceFixture, WorkerSpansParentAcrossThreadPool) {
  // The mc_ssta pattern: capture the dispatching span's id, hand it to every
  // pool worker, and check the tree stitches together across threads.
  std::uint64_t dispatch_id = 0;
  {
    obs::Span dispatch("dispatch");
    dispatch_id = obs::Span::current_id();
    ASSERT_EQ(dispatch_id, dispatch.id());
    ThreadPool pool(4);
    pool.run([&](std::size_t) {
      obs::Span worker_span("worker", dispatch_id);
      obs::Span child("worker_child");  // implicit: nests under worker_span
    });
  }
  const auto spans = obs::trace_snapshot();
  std::size_t workers = 0;
  std::size_t children = 0;
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const auto& r : spans) by_id[r.id] = &r;
  for (const auto& r : spans) {
    if (std::string(r.name) == "worker") {
      ++workers;
      EXPECT_EQ(r.parent, dispatch_id);
    }
    if (std::string(r.name) == "worker_child") {
      ++children;
      ASSERT_TRUE(by_id.count(r.parent));
      EXPECT_STREQ(by_id[r.parent]->name, "worker");
      // The implicit parent lives on the same thread; the explicit-parent
      // stitch is what crosses threads.
      EXPECT_EQ(by_id[r.parent]->thread, r.thread);
    }
  }
  EXPECT_EQ(workers, 4u);
  EXPECT_EQ(children, 4u);
}

TEST_F(TraceFixture, DisabledSpansRecordNothingAndCurrentIdIsZero) {
  obs::trace_enable(false);
  {
    obs::Span span("ghost");
    EXPECT_EQ(span.id(), 0u);
    EXPECT_EQ(obs::Span::current_id(), 0u);
  }
  obs::trace_enable(true);
  EXPECT_TRUE(obs::trace_snapshot().empty());
}

TEST_F(TraceFixture, DisabledSpansAllocateNothing) {
  obs::trace_enable(false);
  // Warm up thread-local state on this thread first.
  { obs::Span warm("warm"); }
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100000; ++i) {
    obs::Span span("hot_path");
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
}

TEST_F(TraceFixture, DisabledSpanOverheadIsNearZero) {
  obs::trace_enable(false);
  obs::Stopwatch sw;
  for (int i = 0; i < 1000000; ++i) {
    obs::Span span("overhead_probe");
  }
  // One relaxed load per construction: even a debug/sanitizer build clears
  // this very generous bound by orders of magnitude.
  EXPECT_LT(sw.seconds(), 1.0);
}

TEST(MetricsTest, CounterFoldsShardsAcrossConcurrentIncrements) {
  obs::Counter& c = obs::counter("sckl.test.concurrent_counter");
  const std::uint64_t base = c.value();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value() - base,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, CounterHandleIsStableAndAdditionsAllocateNothing) {
  obs::Counter& c = obs::counter("sckl.test.alloc_free_counter");
  EXPECT_EQ(&c, &obs::counter("sckl.test.alloc_free_counter"));
  c.add(1);  // touch the thread-local shard index once
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100000; ++i) c.add(1);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(MetricsTest, GaugeStoresLastWrite) {
  obs::Gauge& g = obs::gauge("sckl.test.gauge");
  g.set(2258.0);
  EXPECT_DOUBLE_EQ(g.value(), 2258.0);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(MetricsTest, HistogramTracksCountSumMinMaxAndQuantiles) {
  obs::Histogram& h = obs::histogram("sckl.test.histogram");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.sum, 500500.0, 1e-9);
  EXPECT_NEAR(snap.mean, 500.5, 1e-9);
  // Log2 buckets give an upper-bound estimate within one power of two.
  EXPECT_GE(snap.quantile(0.5), 500.0);
  EXPECT_LE(snap.quantile(0.5), 1024.0);
  EXPECT_GE(snap.quantile(0.99), snap.quantile(0.5));
}

TEST(MetricsTest, HistogramConcurrentRecordsKeepExactCountAndSum) {
  obs::Histogram& h = obs::histogram("sckl.test.histogram_mt");
  const obs::HistogramSnapshot base = h.snapshot();
  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kRecords; ++i) h.record(2.0);
    });
  }
  for (auto& t : threads) t.join();
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count - base.count,
            static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_NEAR(snap.sum - base.sum, 2.0 * kThreads * kRecords, 1e-6);
}

TEST(MetricsTest, StandardMetricsAreRegisteredUpFront) {
  obs::register_standard_metrics();
  const std::vector<obs::MetricRow> rows = obs::metrics_snapshot();
  const auto present = [&](const char* name) {
    return std::any_of(rows.begin(), rows.end(), [&](const obs::MetricRow& r) {
      return r.name == name;
    });
  };
  // A run that never touches the store still exports the store vocabulary.
  EXPECT_TRUE(present("sckl.store.cache.hits"));
  EXPECT_TRUE(present("sckl.store.cache.misses"));
  EXPECT_TRUE(present("sckl.linalg.lanczos.iterations"));
  EXPECT_TRUE(present("sckl.ssta.mc.blocks"));
}

class JsonFixture : public TraceFixture {};

TEST_F(JsonFixture, TraceJsonRoundTripsSchemaSpansAndMetrics) {
  {
    obs::Span outer("json_outer");
    obs::Span inner("json_inner");
  }
  obs::counter("sckl.test.json_counter").add(7);
  obs::gauge("sckl.test.json_gauge").set(3.25);
  obs::histogram("sckl.test.json_histogram").record(42.0);

  const std::string doc = obs::trace_json_string();
  // Stable schema marker.
  EXPECT_NE(doc.find("\"schema\": \"sckl-trace-v1\""), std::string::npos);

  // Spans round-trip: both names present, and the inner span's parent field
  // carries the outer span's id.
  auto spans = by_name();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(doc.find("\"name\": \"json_outer\""), std::string::npos);
  const std::string inner_entry =
      "\"parent\": " + std::to_string(spans["json_outer"].id) +
      ", \"name\": \"json_inner\"";
  EXPECT_NE(doc.find(inner_entry), std::string::npos);

  // Metrics round-trip with kind and value.
  EXPECT_NE(doc.find("\"name\": \"sckl.test.json_counter\", \"kind\": "
                     "\"counter\", \"count\": 7"),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"sckl.test.json_gauge\", \"kind\": "
                     "\"gauge\", \"count\": 0, \"value\": 3.25"),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"sckl.test.json_histogram\", \"kind\": "
                     "\"histogram\", \"count\": 1"),
            std::string::npos);

  // Structural sanity: braces and brackets balance, so any JSON parser can
  // consume the document.
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(JsonFixture, WriteTraceJsonProducesTheSameDocumentOnDisk) {
  { obs::Span span("disk_span"); }
  const std::string path = ::testing::TempDir() + "/sckl_obs_test_trace.json";
  ASSERT_TRUE(obs::write_trace_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string from_disk;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0)
    from_disk.append(buffer, n);
  std::fclose(f);
  EXPECT_EQ(from_disk, obs::trace_json_string());
  std::remove(path.c_str());
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  obs::Stopwatch sw;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(sw.seconds(), 0.0);
  const double first = sw.seconds();
  const double second = sw.seconds();
  EXPECT_LE(first, second);  // monotone across calls
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

TEST(RunToolTest, AnyExceptionIsAMessageAndExitOne) {
  // A tool body that runs out of memory (an oversized solve) must exit 1
  // like one that throws sckl::Error, not abort on an uncaught exception.
  const char* argv[] = {"tool"};
  const CliFlags flags(1, argv);
  EXPECT_EQ(obs::run_tool("tool", flags, []() -> int {
              throw std::bad_alloc();
            }),
            1);
  EXPECT_EQ(obs::run_tool("tool", flags, []() -> int {
              throw Error("typed", ErrorCode::kPrecondition);
            }),
            1);
  EXPECT_EQ(obs::run_tool("tool", flags, [] { return 0; }), 0);
}

TEST(TraceEnvTest, ParsesTruthyAndFalsyValues) {
  // Only observable without mutating the real environment by checking the
  // current value is handled (unset in test runs -> false).
  if (std::getenv("SCKL_TRACE") == nullptr) {
    EXPECT_FALSE(obs::trace_env_requested());
  }
}

}  // namespace
}  // namespace sckl
