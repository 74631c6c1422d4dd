// Workload serve_sample: SampleBlock traffic against an in-process daemon.
//
// Why: the protocol, batching, admission and the sampler LRU do the work;
// solving happens only in set-up. A serve::Server with 2 workers, a unix
// socket, its store root in the run directory and its default 64 MiB
// sampler cache holds the paper-mesh Gaussian KLE (m = 50). From this
// process, 2 connections send SampleBlock requests at r = 25. A fixed-rate
// open loop (latency at a given load) is followed by a closed loop
// (capacity). serve::Client holds one request per connection, so the
// open-loop rate leaves each connection mostly idle; at 2000 rps on one
// connection the generator queued behind itself (p99 42-147 ms).
//
// The traffic mix is an assumption, not measured traffic: nothing in the
// repository sends SampleBlock except bench_serve and the tests. Of every
// 16 consecutive requests, 15 ask for 16 rows (bench_serve's default
// --rows) and one for 256 rows (one Monte Carlo block at the ssta runner's
// default McSstaOptions::block_size); 14 use c5315's 2307 gate locations
// and 2 use the next set of a pool of 192 random sets of 2307 locations,
// visited in a seeded order. The cache charges ~0.54 MB per sampler of
// 2307 locations, so the pool (~100 MB of charge) outgrows it: a pool set
// has been evicted long before it comes round again, and every pool
// request builds its sampler.
//
// Measured on a 4-vCPU KVM host: bench_serve's 16-row x 128-location
// requests on 2 connections gave p50 0.50-0.51 ms at 500 rps over three
// 20-s runs, p99 7.5-12.3 ms with ~11% of vCPU time stolen, and 6.5-7.2k
// rps closed loop. Over c5315's 2307 gates one request costs far more: a
// hot 16-row block 4.9 ms, a 256-row block (4.7 MB reply) 80 ms, a cold
// location set 1.5-3.5 ms more, mostly reply encoding and decoding, so the
// open loop offers 40 rps. Its median moved from 4.3 to 6.8 ms between
// runs whose stolen vCPU time went from 0.2% to 6%.
//
// Unit of work: one SampleBlock request. op_ms is the open-loop median
// latency, timed from each request's scheduled send; ops_per_s is the
// closed-loop rate.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "field/kle_sampler.h"
#include "harness.h"
#include "kernels/kernel_fit.h"
#include "load_gen.h"
#include "paper_inputs.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/artifact_store.h"
#include "store/key_hash.h"

namespace perfbench {

using namespace sckl;

namespace {

constexpr std::size_t kConnections = 2;
constexpr double kOpenLoopRate = 40.0;  // requests per second, both conns
constexpr double kOpenLoopShare = 0.6;   // of --seconds; the rest is closed
constexpr std::size_t kSmallRows = 16;
constexpr std::size_t kLargeRows = 256;
constexpr std::size_t kBlock = 16;  // requests per stratum of the mix
constexpr std::size_t kColdPerBlock = 2;
constexpr std::size_t kColdSets = 192;
constexpr std::size_t kColdSetSize = 2307;
constexpr std::uint32_t kDeadlineMs = 2000;
constexpr std::size_t kMixSize = 4096;
constexpr std::size_t kVerifyEvery = 16;
constexpr double kSliceSeconds = 0.5;  // traced-run toggle period

/// One entry of the seeded request mix.
struct Mix {
  std::size_t rows = kSmallRows;
  std::size_t set = 0;  // 0 = c5315's gates, 1.. = cold pool
  std::uint64_t first = 0;
  std::uint64_t parameter = 0;
};

store::KleArtifactConfig kle_config() {
  store::KleArtifactConfig config;
  config.kernel_id = "gaussian";
  config.kernel_params = {kernels::paper_gaussian_c()};
  config.mesh.kind = store::MeshSpec::Kind::kPaperRefined;
  config.mesh.area_fraction = 0.001;
  config.mesh.mesher_seed = kPaperMesherSeed;
  config.num_eigenpairs = 50;
  return config;
}

std::uint64_t hash_values(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

/// Inputs every request draws from, generated from the run's seed.
struct Inputs {
  std::vector<std::vector<geometry::Point2>> sets;  // [0] = hot
  std::vector<Mix> mix;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.sets.push_back(place_c5315().gate_locations);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const auto unit = [&] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  for (std::size_t s = 0; s < kColdSets; ++s) {
    std::vector<geometry::Point2> set(kColdSetSize);
    for (auto& p : set) p = {2.0 * unit() - 1.0, 2.0 * unit() - 1.0};
    in.sets.push_back(std::move(set));
  }
  // Stratified: every block of kBlock consecutive requests holds exactly
  // one 256-row and kColdPerBlock cold-set requests, so any stretch of the
  // run sees the same composition; the seed picks their positions, the
  // order the pool is visited in, ranges and streams.
  in.mix.resize(kMixSize);
  for (std::size_t b = 0; b < kMixSize; b += kBlock) {
    std::vector<std::size_t> slots(kBlock);
    for (std::size_t j = 0; j < kBlock; ++j) slots[j] = b + j;
    std::shuffle(slots.begin(), slots.end(), rng);
    in.mix[slots[0]].rows = kLargeRows;
    for (std::size_t j = 1; j <= kColdPerBlock; ++j) in.mix[slots[j]].set = 1;
  }
  // Cold requests take the pool's sets in turn, so a set comes round again
  // only after every other pool set has been used.
  std::vector<std::size_t> order(kColdSets);
  std::iota(order.begin(), order.end(), std::size_t{1});
  std::shuffle(order.begin(), order.end(), rng);
  std::size_t cold = 0;
  for (Mix& m : in.mix) {
    if (m.set != 0) m.set = order[cold++ % kColdSets];
    m.first = rng() % 1'000'000;
    m.parameter = rng() % 4;
  }
  return in;
}

/// The daemon plus one client per connection.
struct Service {
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;
  /// Request id each client sends next: serve::Client numbers its calls
  /// 1, 2, ... and the daemon tags its serve.sample_block span with the id.
  std::vector<std::uint64_t> next_id;
  std::string store_root;
  std::uint64_t mesh_triangles = 0;
};

Service start_service(std::size_t index, std::uint64_t seed,
                      const Inputs& in) {
  Service svc;
  const std::string dir = run_dir() + "/serve-" + std::to_string(index);
  std::filesystem::create_directories(dir);
  serve::ServerOptions options;
  options.unix_path = dir + "/sock";  // relative: short whatever the checkout
  options.store_root = dir + "/store";
  options.num_threads = kThreads;
  svc.store_root = options.store_root;
  svc.server = std::make_unique<serve::Server>(options);
  {
    obs::Span span("bench.server_start");
    svc.server->start();
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    svc.clients.push_back(serve::Client::connect_unix(options.unix_path));
    svc.clients.back().set_deadline_ms(kDeadlineMs);
    svc.next_id.push_back(1);
  }
  serve::SolveKleRequest solve;
  solve.config = kle_config();
  {
    obs::Span span("bench.client_solve_kle");
    svc.mesh_triangles = svc.clients[0].solve_kle(solve).mesh_triangles;
    ++svc.next_id[0];
  }
  // Build and cache the hot sampler, as a long-running daemon would have.
  serve::SampleBlockRequest warm;
  warm.config = solve.config;
  warm.r = 25;
  warm.locations = in.sets[0];
  warm.range = {0, kSmallRows};
  warm.stream = {seed, 0};
  {
    obs::Span span("bench.sample_block");
    svc.clients[0].sample_block(warm);
    ++svc.next_id[0];
  }
  return svc;
}

/// Per-connection outcome beyond the generator's timeline.
struct ConnectionLog {
  std::vector<std::pair<std::size_t, bool>> traced;  // (index, traced)
  std::vector<std::pair<std::size_t, std::uint64_t>> hashes;  // to verify
  std::vector<double> queue_depth;  // gauge seen before traced sends
  /// Traced open-loop requests: (index, id of their bench.sample_block span).
  std::vector<std::pair<std::size_t, std::uint64_t>> open_spans;
};

/// Server-side time of each traced open-loop request, in microseconds: its
/// serve.sample_block span, from the start of the sampler fetch and build
/// that preceded it on the same worker thread when the daemon's sampler
/// cache missed. The daemon's spans carry the request id as their tag; a
/// request's span must also lie inside the client's bench.sample_block
/// span, which tells apart the two connections' equal ids. Returns the
/// matched (server_us, index) pairs.
std::vector<std::pair<double, std::size_t>> server_times(
    const std::vector<obs::SpanRecord>& spans,
    const std::vector<ConnectionLog>& logs) {
  struct Served {
    std::int64_t begin, start, end;
    bool used = false;
  };
  std::multimap<std::uint64_t, Served> by_tag;
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  std::map<std::uint32_t, std::vector<const obs::SpanRecord*>> by_thread;
  for (const obs::SpanRecord& s : spans) {
    by_id[s.id] = &s;
    if (std::strcmp(s.name, "serve.sample_block") == 0 ||
        std::strcmp(s.name, "store.fetch") == 0)
      by_thread[s.thread].push_back(&s);
  }
  for (auto& [thread, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_ns < b->start_ns;
    });
    std::int64_t fetch = -1;  // start of a sampler fetch not yet used
    for (const obs::SpanRecord* s : list) {
      if (std::strcmp(s->name, "store.fetch") == 0) {
        if (fetch < 0) fetch = s->start_ns;
        continue;
      }
      by_tag.insert({s->tag, Served{fetch >= 0 ? fetch : s->start_ns,
                                    s->start_ns, s->start_ns + s->wall_ns}});
      fetch = -1;
    }
  }
  std::vector<std::pair<double, std::size_t>> out;
  for (const ConnectionLog& log : logs)
    for (const auto& [index, span_id] : log.open_spans) {
      const auto client = by_id.find(span_id);
      if (client == by_id.end()) continue;
      const obs::SpanRecord& c = *client->second;
      const auto [lo, hi] = by_tag.equal_range(c.tag);
      for (auto it = lo; it != hi; ++it) {
        Served& s = it->second;
        if (s.used || s.start < c.start_ns ||
            s.end > c.start_ns + c.wall_ns)
          continue;
        s.used = true;
        out.push_back({static_cast<double>(s.end - s.begin) * 1e-3, index});
        break;
      }
    }
  return out;
}

}  // namespace

WorkloadResult run_serve_sample(const Args& args, Tally& tally,
                                Tracer& tracer) {
  Inputs in;
  Service svc;
  std::size_t setups = 0;
  WorkloadResult result;
  result.setup_s = timed_setups(
      args, tracer, 3,
      [&] {
        in = make_inputs(args.seed);
        svc = start_service(setups++, args.seed, in);
      },
      [&] {
        svc.clients.clear();
        svc.server->stop();
        svc = Service{};
      });

  const store::KleArtifactConfig config = kle_config();
  std::vector<ConnectionLog> logs(kConnections);
  obs::Gauge& queue_gauge = obs::gauge("sckl.serve.queue_depth");
  // Requests below open_count belong to the open loop.
  const double open_s = kOpenLoopShare * args.seconds;
  const std::size_t open_count =
      static_cast<std::size_t>(kOpenLoopRate * open_s);
  const IssueFn issue = [&](std::size_t c, std::size_t i) {
    const Mix& m = in.mix[i % in.mix.size()];
    serve::SampleBlockRequest q;
    q.config = config;
    q.r = 25;
    q.locations = in.sets[m.set];
    q.range = {m.first, m.rows};
    q.stream = {args.seed, m.parameter};
    const std::uint64_t parent = tracer.marker_id();
    ConnectionLog& log = logs[c];
    log.traced.push_back({i, parent != 0});
    if (parent != 0) log.queue_depth.push_back(queue_gauge.value());
    serve::SampleBlockReply reply;
    {
      obs::Span span("bench.sample_block", parent);
      span.set_tag(svc.next_id[c]++);
      if (span.id() != 0 && i < open_count)
        log.open_spans.push_back({i, span.id()});
      reply = svc.clients[c].sample_block(q);
    }
    const bool ok =
        reply.rows == m.rows && reply.cols == q.locations.size() &&
        reply.values.size() == m.rows * q.locations.size();
    if (ok && i % kVerifyEvery == 0)
      log.hashes.push_back({i, hash_values(reply.values)});
    return ok;
  };

  // Traced run: a toggler thread alternates untraced and traced slices.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point closed_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(open_s));
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::thread toggler;
  if (tracer.enabled())
    toggler = std::thread([&] {
      for (std::size_t k = 0; Clock::now() < end; ++k) {
        if (tracer.traces_unit(k)) tracer.begin(/*setup=*/false);
        std::this_thread::sleep_until(std::min(
            end, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        kSliceSeconds))));
        tracer.end();
      }
    });
  const TraceParentFn parent = [&] { return tracer.marker_id(); };
  const IssueFn closed_issue = [&](std::size_t c, std::size_t i) {
    return issue(c, open_count + i);
  };
  // Each connection thread runs its open-loop share, then the closed loop.
  std::vector<std::vector<RequestRecord>> closed_per(kConnections);
  const std::vector<RequestRecord> open =
      on_connections(kConnections, [&](std::size_t c) {
        std::vector<RequestRecord> records = open_loop_connection(
            c, kConnections, kOpenLoopRate, open_count, start, issue, parent);
        closed_per[c] = closed_loop_connection(c, kConnections, closed_start,
                                               end, closed_issue, parent);
        return records;
      });
  std::vector<RequestRecord> closed;
  for (const auto& records : closed_per)
    closed.insert(closed.end(), records.begin(), records.end());
  if (toggler.joinable()) toggler.join();

  // Every request is an operation; a failed one misses any latency limit.
  std::vector<double> latency;
  double lag_sum = 0.0;
  for (const RequestRecord& r : open) {
    tally.record(r.ok, "serve_sample: open-loop request " +
                           std::to_string(r.index) + " failed");
    latency.push_back(r.ok ? r.latency_ms()
                           : std::numeric_limits<double>::infinity());
    lag_sum += r.lag_ms();
  }
  // Closed-loop rate: each connection's completed requests over the time
  // it spent in the closed loop, summed over connections.
  double closed_rate = 0.0;
  for (const auto& records : closed_per) {
    std::size_t ok = 0;
    for (const RequestRecord& r : records) {
      tally.record(r.ok, "serve_sample: closed-loop request " +
                             std::to_string(r.index) + " failed");
      ok += r.ok ? 1 : 0;
    }
    if (!records.empty())
      closed_rate += static_cast<double>(ok) /
                     (records.back().done_s - records.front().sent_s);
  }
  std::sort(latency.begin(), latency.end());

  // Replies must equal a local sample_block of the same range, bit for bit.
  // Checked set by set, holding one local sampler at a time.
  {
    store::KleArtifactStore local(svc.store_root);
    const auto kernel =
        store::make_kernel(config.kernel_id, config.kernel_params);
    const store::FetchResult fetch = local.get_or_compute(config, *kernel);
    std::multimap<std::size_t, std::pair<std::size_t, std::uint64_t>> by_set;
    for (const ConnectionLog& log : logs)
      for (const auto& [i, hash] : log.hashes)
        by_set.insert({in.mix[i % in.mix.size()].set, {i, hash}});
    std::unique_ptr<field::KleFieldSampler> sampler;
    std::size_t sampler_set = 0;
    linalg::Matrix block;
    for (const auto& [set, entry] : by_set) {
      const auto& [i, hash] = entry;
      const Mix& m = in.mix[i % in.mix.size()];
      if (!sampler || sampler_set != set) {
        sampler.reset();
        sampler = std::make_unique<field::KleFieldSampler>(*fetch.artifact,
                                                           25, in.sets[set]);
        sampler_set = set;
      }
      sampler->sample_block({m.first, m.rows}, {args.seed, m.parameter},
                            block);
      const std::vector<double> values(
          block.data(), block.data() + block.rows() * block.cols());
      tally.record(hash_values(values) == hash,
                   "serve_sample: reply " + std::to_string(i) +
                       " differs from a local sample_block");
    }
  }

  const Percentile p50 = percentile(latency, 50.0);
  const Percentile tail = highest_supported_percentile(latency);
  result.unit = "one SampleBlock request (16 or 256 rows, r = 25)";
  result.units = open.size();
  result.op_ms = p50.value;
  result.ops_per_s = closed_rate;
  add_fact(result, "N_g", static_cast<double>(in.sets[0].size()));
  add_fact(result, "n", static_cast<double>(svc.mesh_triangles));
  add_fact(result, "m", 50);
  add_fact(result, "r", 25);
  add_fact(result, "open_loop_rate", kOpenLoopRate);
  add_fact(result, "open_loop_requests", static_cast<double>(open.size()));
  add_fact(result, "closed_loop_requests", static_cast<double>(closed.size()));
  add_fact(result, "client_tail_percentile", tail.p);
  add_fact(result, "client_tail_ms", tail.value);
  add_fact(result, "client_tail_samples_beyond",
           static_cast<double>(tail.beyond));
  add_fact(result, "gen_lag_ms_mean",
           open.empty() ? 0.0 : lag_sum / static_cast<double>(open.size()));
  add_fact(result, "sampler_cache_hit_rate",
           svc.server->sampler_cache_stats().hit_rate());

  svc.clients.clear();
  svc.server->stop();

  if (tracer.enabled()) {
    // Per-request overhead: traced slices against untraced ones.
    std::size_t traced_requests = 0;
    std::vector<double> queue_depth;
    std::map<std::size_t, bool> traced_index;
    for (const ConnectionLog& log : logs) {
      for (const auto& [i, traced] : log.traced) traced_index[i] = traced;
      queue_depth.insert(queue_depth.end(), log.queue_depth.begin(),
                         log.queue_depth.end());
    }
    // Service time (send to reply) of each request, by slice kind.
    const auto account = [&](const RequestRecord& r, std::size_t index) {
      const bool traced = traced_index[index];
      traced_requests += traced ? 1 : 0;
      if (r.ok) tracer.record_unit(traced ? 1 : 0, r.done_s - r.sent_s);
    };
    for (const RequestRecord& r : open) account(r, r.index);
    for (const RequestRecord& r : closed) account(r, open_count + r.index);
    tracer.add_ops(traced_requests);
    tracer.finish();

    LayerValues& l = result.layers;
    add_traced_layers(tracer, l);
    // Server side against client side, over the same traced open-loop
    // requests and at the same percentile.
    std::vector<double> server_us;
    std::vector<double> client_ms;
    for (const auto& [us, index] : server_times(tracer.unit_spans(), logs)) {
      server_us.push_back(us);
      client_ms.push_back(open[index].ok
                              ? open[index].latency_ms()
                              : std::numeric_limits<double>::infinity());
    }
    std::size_t open_traced = 0;
    for (const ConnectionLog& log : logs) open_traced += log.open_spans.size();
    std::sort(server_us.begin(), server_us.end());
    std::sort(client_ms.begin(), client_ms.end());
    const Percentile server_tail = highest_supported_percentile(server_us);
    l["serve.request_p50_us"] = percentile(server_us, 50.0).value;
    l["serve.request_tail_us"] = server_tail.value;
    l["serve.client_tail_ms"] = percentile(client_ms, server_tail.p).value;
    add_fact(result, "traced_open_loop_requests",
             static_cast<double>(open_traced));
    add_fact(result, "traced_open_loop_matched",
             static_cast<double>(server_us.size()));
    add_fact(result, "traced_tail_percentile", server_tail.p);
    add_fact(result, "traced_tail_samples_beyond",
             static_cast<double>(server_tail.beyond));
    const auto& reg = tracer.unit_registry();
    const auto value = [&](const char* name) {
      const auto it = reg.find(name);
      return it == reg.end() ? 0.0 : it->second;
    };
    const double requests = value("sckl.serve.requests");
    if (requests > 0)
      l["serve.batching_ratio"] =
          value("sckl.serve.batched_requests") / requests;
    const double lookups = value("sckl.serve.sampler_cache.hits") +
                           value("sckl.serve.sampler_cache.misses");
    if (lookups > 0)
      l["serve.sampler_cache_hit_ratio"] =
          value("sckl.serve.sampler_cache.hits") / lookups;
    double depth_sum = 0.0;
    for (const double d : queue_depth) depth_sum += d;
    l["serve.queue_depth"] =
        queue_depth.empty()
            ? 0.0
            : depth_sum / static_cast<double>(queue_depth.size());
    l["serve.gen_lag_ms"] =
        open.empty() ? 0.0 : lag_sum / static_cast<double>(open.size());
    l["mesh.triangles"] = static_cast<double>(svc.mesh_triangles);
  }
  return result;
}

}  // namespace perfbench
