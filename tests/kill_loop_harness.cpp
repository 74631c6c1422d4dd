// Subprocess crash-injection harness for the artifact store.
//
// `drive` mode is the kill-loop: for every store crash point
// (store_write_pre_fsync, store_write_pre_rename, store_write_post_rename,
// store_gc_mid_sweep) it repeatedly forks a child that arms the site and
// runs the real store code until the armed crash_point() _Exit()s it —
// simulating `kill -9` at the worst instants of the publish/sweep
// protocols. After every kill the parent asserts the crash-consistency
// invariant the store promises:
//
//   * every previously committed artifact is still readable and CRC-valid;
//   * no partial file is ever visible under a final <key>.sckl name
//     (pre-rename crashes leave at most an orphaned tmp, post-rename
//     crashes leave a complete committed artifact);
//   * one fsck() pass returns the repository to a provably clean state.
//
// `stampede` mode is the multi-process solve-dedup check: N forked children
// call get_or_compute on the same cold key concurrently; the per-key
// advisory lock must reduce that to exactly one eigensolve (one child
// reports source=solved, all others source=disk).
//
// `mc` mode is the resume kill-loop of the checkpointed Monte Carlo runner
// (ssta/mc_run.h): for each MC crash site (mc_worker_crash at block
// boundaries, mc_ledger_write mid ledger append) and each thread count in
// {1, 2, 8}, children run the checkpointed pipeline with the crash site's
// skip marching forward one hit per fork — killed at the first block, then
// the second, then mid-append of each lease record — resuming the same
// ledger every time until a child survives to completion. The parent then
// resumes once more and asserts the resume invariant: the final statistics
// (mean/M2/min/max, every endpoint accumulator, the full quantile-sketch
// state) are BIT-identical to an uninterrupted reference run.
//
// `mc-dist` mode is the distributed chaos harness of the remote lease
// protocol (DESIGN.md §12): each scenario forks a coordinator daemon
// (sckl_serve Server running a distributed RunSsta) plus three worker
// processes (serve::run_worker), then injures the fleet —
//
//   worker_kill        SIGKILL every worker at successive progress
//                      milestones while the run is live; the coordinator
//                      reclaims their leases and degrades to local compute;
//   mc_rpc_transient   a worker's RPCs fail transiently; its bounded
//                      jittered retry reconnects and the run completes;
//   mc_worker_stall    a worker wedges past the lease TTL without
//                      heartbeating; the coordinator must expire and
//                      reclaim its lease (asserted via the expiry counter);
//   mc_coordinator_crash  the coordinator _Exit()s right after a durable
//                      ledger append, generation after generation with the
//                      skip marching forward, while the workers ride the
//                      restarts through their reconnect loops.
//
// After every scenario the parent resumes the run's ledger locally and
// asserts the distributed invariant: zero leases recomputed, every lease
// loaded from the ledger, and statistics BIT-identical to an uninterrupted
// single-process reference — kills, stalls, restarts, and duplicated
// publishes cannot move a single bit.
//
// Exit status: 0 when every iteration upholds the invariants, 1 otherwise.
// Registered with ctest at a small iteration count; the CI crash-injection
// job runs >= 50 iterations per site under ASan/UBSan.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/bench_parser.h"
#include "circuit/synthetic.h"
#include "common/cli.h"
#include "common/error.h"
#include "field/cholesky_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "obs/metrics.h"
#include "placer/recursive_placer.h"
#include "robust/fault_injection.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/worker.h"
#include "ssta/experiment.h"
#include "ssta/mc_run.h"
#include "store/artifact_store.h"
#include "store/file_lock.h"
#include "store/kle_io.h"
#include "store/recovery.h"

#if defined(__unix__) || defined(__APPLE__)
#define SCKL_HAVE_FORK 1
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define SCKL_HAVE_FORK 0
#endif

namespace {

using namespace sckl;
namespace fs = std::filesystem;

/// Small-but-real artifact configuration; `variant` perturbs the kernel
/// parameter so every iteration works on a fresh (cold) content key at
/// identical solve cost.
store::KleArtifactConfig variant_config(std::uint64_t variant) {
  store::KleArtifactConfig config;
  config.kernel_id = "gaussian";
  config.kernel_params = {2.0 + 1e-9 * static_cast<double>(variant)};
  config.mesh.kind = store::MeshSpec::Kind::kStructuredCross;
  config.mesh.target_triangles = 100;
  config.num_eigenpairs = 12;
  return config;
}

kernels::GaussianKernel variant_kernel(std::uint64_t variant) {
  return kernels::GaussianKernel(2.0 + 1e-9 * static_cast<double>(variant));
}

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

#if SCKL_HAVE_FORK

/// Forks and runs `body` in the child; returns the child's exit status.
/// The child never returns from this function.
template <typename Body>
int run_child(Body&& body) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    int status = 1;
    try {
      status = body();
    } catch (...) {
      status = 3;
    }
    std::_Exit(status);
  }
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0) {
  }
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 128 + WTERMSIG(wstatus);
}

/// Reads every committed path; any failure breaks the durability promise.
void check_committed_survive(const std::vector<fs::path>& committed,
                             const std::string& context) {
  for (const fs::path& path : committed) {
    try {
      store::read_kle_file(path.string());
    } catch (const Error& e) {
      check(false, context + ": committed artifact lost: " + path.string() +
                       " (" + e.what() + ")");
    }
  }
}

/// Asserts that every *.sckl file under a final name decodes cleanly — a
/// reader must never observe a torn artifact, crash or no crash.
void check_no_torn_final_files(const fs::path& root,
                               const std::string& context) {
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_regular_file() || !store::is_artifact_file(entry.path()))
      continue;
    try {
      store::read_kle_file(entry.path().string());
    } catch (const Error& e) {
      check(false, context + ": torn file under final key name: " +
                       entry.path().string() + " (" + e.what() + ")");
    }
  }
}

int drive_kill_loop(const fs::path& root, int iterations) {
  const std::vector<robust::FaultSite> sites = {
      robust::FaultSite::kStoreWritePreFsync,
      robust::FaultSite::kStoreWritePreRename,
      robust::FaultSite::kStoreWritePostRename,
      robust::FaultSite::kStoreGcMidSweep,
  };

  fs::remove_all(root);
  std::vector<fs::path> committed;
  std::uint64_t variant = 0;

  {
    // Baseline committed artifacts the kill-loop must never lose.
    store::KleArtifactStore store(root);
    for (int i = 0; i < 2; ++i) {
      const store::KleArtifactConfig config = variant_config(variant);
      store.get_or_compute(config, variant_kernel(variant));
      committed.push_back(store.path_for(config));
      ++variant;
    }
  }

  for (const robust::FaultSite site : sites) {
    const std::string site_name = robust::to_string(site);
    for (int iter = 0; iter < iterations; ++iter) {
      const std::string context =
          site_name + " iteration " + std::to_string(iter);
      const std::uint64_t v = variant++;

      int status = 0;
      if (site == robust::FaultSite::kStoreGcMidSweep) {
        // Plant debris, then kill a child mid-gc-sweep.
        std::ofstream(root / ("feedfacefeedface.sckl." +
                              std::to_string(iter) + ".77.tmp"))
            << "partial";
        std::ofstream(root / "deadbeefdeadbeef.sckl.bad") << "evidence";
        status = run_child([&] {
          robust::FaultInjector::instance().arm(site, 1);
          store::FsckOptions gc;
          gc.purge_quarantine = true;
          store::fsck(root, gc);
          return 0;  // unreachable when the crash fires
        });
      } else {
        // Kill a writer child mid-publish of a cold key.
        status = run_child([&] {
          robust::FaultInjector::instance().arm(site, 1);
          store::KleArtifactStore store(root);
          store.get_or_compute(variant_config(v), variant_kernel(v));
          return 0;  // unreachable when the crash fires
        });
      }
      check(status == robust::kCrashExitCode,
            context + ": child exited " + std::to_string(status) +
                ", expected the armed crash point to kill it");

      // Invariant 1+2: nothing committed is lost, nothing torn is visible.
      check_committed_survive(committed, context);
      check_no_torn_final_files(root, context);
      const fs::path crashed_path =
          root / (store::key_string(store::artifact_key(variant_config(v))) +
                  ".sckl");
      if (site == robust::FaultSite::kStoreWritePostRename) {
        // The rename happened before the kill: the artifact IS committed.
        try {
          store::read_kle_file(crashed_path.string());
          committed.push_back(crashed_path);
        } catch (const Error& e) {
          check(false, context + ": post-rename artifact unreadable: " +
                           std::string(e.what()));
        }
      } else if (site != robust::FaultSite::kStoreGcMidSweep) {
        check(!fs::exists(crashed_path),
              context + ": pre-rename crash left a file under the final key");
      }

      // Invariant 3: one recovery pass returns the store to a clean state.
      store::FsckOptions repair;
      repair.purge_quarantine = true;
      store::fsck(root, repair);
      store::FsckOptions audit;
      audit.repair = false;
      const store::FsckResult after = store::fsck(root, audit);
      check(after.stats.clean(),
            context + ": store not clean after recovery:\n" +
                after.report.to_string());
      check(after.stats.healthy == committed.size(),
            context + ": fsck sees " + std::to_string(after.stats.healthy) +
                " healthy artifacts, expected " +
                std::to_string(committed.size()));
    }
    std::printf("site %-24s %d crash iterations clean\n", site_name.c_str(),
                iterations);
  }
  return failures == 0 ? 0 : 1;
}

// --- mc resume kill-loop ---------------------------------------------------

/// The c17 MC workload used by every mc-mode run: small enough that a full
/// uninterrupted run takes milliseconds, partitioned so a run spans several
/// leases (120 samples / block 8 = 15 blocks, 3 blocks per lease = 5
/// leases, 6 ledger appends).
struct McWorkload {
  McWorkload()
      : netlist(circuit::parse_bench_string(circuit::c17_bench_text(), "c17")),
        placement(placer::place(netlist)),
        library(timing::CellLibrary::default_90nm()),
        engine(netlist, placement, library),
        kernel(kernels::paper_gaussian_c()),
        locations(placement.physical_locations(netlist)),
        sampler(kernel, locations) {}

  ssta::McSstaOptions options(std::size_t threads) const {
    ssta::McSstaOptions options;
    options.num_samples = 120;
    options.block_size = 8;
    options.seed = 99;
    options.sketch_capacity = 32;
    options.num_threads = threads;
    return options;
  }

  ssta::McRunOptions run_options(const fs::path& dir, bool resume) const {
    ssta::McRunOptions run;
    run.run_id = "kill-loop";
    run.ledger_dir = dir;
    run.lease_blocks = 3;
    run.resume = resume;
    run.workload_key = 0xc17;
    return run;
  }

  ssta::ParameterSamplers samplers() const {
    return {&sampler, &sampler, &sampler, &sampler};
  }

  circuit::Netlist netlist;
  placer::Placement placement;
  timing::CellLibrary library;
  timing::StaEngine engine;
  kernels::GaussianKernel kernel;
  std::vector<geometry::Point2> locations;
  field::CholeskyFieldSampler sampler;
};

/// Bitwise comparison of every statistic in the resume invariant.
bool results_bit_identical(const ssta::McSstaResult& a,
                           const ssta::McSstaResult& b) {
  if (!a.worst_delay.state_equals(b.worst_delay)) return false;
  if (!a.worst_delay_sketch.state_equals(b.worst_delay_sketch)) return false;
  if (a.endpoint.size() != b.endpoint.size()) return false;
  for (std::size_t e = 0; e < a.endpoint.size(); ++e)
    if (!a.endpoint[e].state_equals(b.endpoint[e])) return false;
  return true;
}

int drive_mc_kill_loop(const fs::path& root, int min_kills) {
  const McWorkload workload;

  // The uninterrupted reference every crashed-and-resumed run must match
  // bit for bit. Thread count 1 here; the invariant says it cannot matter.
  fs::remove_all(root);
  const ssta::McSstaResult reference = ssta::run_checkpointed_monte_carlo_ssta(
      workload.engine, workload.samplers(), workload.options(1),
      workload.run_options(root / "reference", /*resume=*/false));

  const std::vector<robust::FaultSite> sites = {
      robust::FaultSite::kMcWorkerCrash,
      robust::FaultSite::kMcLedgerWrite,
  };
  for (const robust::FaultSite site : sites) {
    const std::string site_name = robust::to_string(site);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const std::string context =
          site_name + " at " + std::to_string(threads) + " threads";
      const fs::path dir =
          root / (site_name + "_t" + std::to_string(threads));

      // March the crash forward one armed hit per fork: each child resumes
      // the ledger its predecessor died on, makes a little more progress,
      // and is killed slightly later — until one survives to completion.
      int kills = 0;
      bool survived = false;
      for (std::uint64_t skip = 0; skip < 256; ++skip) {
        const bool resume = skip > 0;
        const int status = run_child([&] {
          robust::FaultInjector::instance().arm(site, 1, skip);
          ssta::run_checkpointed_monte_carlo_ssta(
              workload.engine, workload.samplers(),
              workload.options(threads),
              workload.run_options(dir, resume));
          return 0;  // the armed hit was past the end of this run's work
        });
        if (status == 0) {
          survived = true;
          break;
        }
        check(status == robust::kCrashExitCode,
              context + ": child exited " + std::to_string(status) +
                  ", expected crash code " +
                  std::to_string(robust::kCrashExitCode));
        if (status != robust::kCrashExitCode) return 1;  // don't loop on a bug
        ++kills;
      }
      check(survived, context + ": no child survived within the skip budget");
      check(kills >= min_kills,
            context + ": only " + std::to_string(kills) +
                " kill(s) occurred, expected >= " + std::to_string(min_kills));

      // Parent resumes the completed ledger: every lease must load from
      // disk and fold to the reference bits.
      ssta::McRunStats stats;
      const ssta::McSstaResult resumed =
          ssta::run_checkpointed_monte_carlo_ssta(
              workload.engine, workload.samplers(), workload.options(threads),
              workload.run_options(dir, /*resume=*/true), &stats);
      check(stats.leases_claimed == 0,
            context + ": resume of a completed run recomputed " +
                std::to_string(stats.leases_claimed) + " lease(s)");
      check(stats.leases_resumed == stats.leases_total,
            context + ": resumed " + std::to_string(stats.leases_resumed) +
                " of " + std::to_string(stats.leases_total) + " leases");
      check(results_bit_identical(resumed, reference),
            context + ": resumed statistics differ from the uninterrupted "
                      "reference (resume invariant broken)");
      std::printf("site %-16s threads %zu: %3d kills, resume bit-identical\n",
                  site_name.c_str(), threads, kills);
    }
  }
  return failures == 0 ? 0 : 1;
}

// --- distributed mc chaos --------------------------------------------------

/// Lease TTL / heartbeat cadence of every mc-dist scenario: small enough
/// that a stalled worker's lease expires within the test budget, spaced so
/// the ctor's heartbeat*3 < TTL rule holds.
constexpr std::uint64_t kDistTtlMs = 1'500;
constexpr std::uint64_t kDistHeartbeatMs = 200;

/// The workload every mc-dist scenario runs: c880 at a geometry that spans
/// 20 leases (480 samples / block 8 = 60 blocks, 3 per lease), so kills and
/// crashes land mid-run. This config is the single source of truth — the
/// coordinator request, the worker's rebuilt pipeline, and the parent's
/// reference/verification runs must all hash to the same workload key.
ssta::ExperimentConfig dist_config(const fs::path& store_root) {
  ssta::ExperimentConfig config;
  config.circuit = "c880";
  config.num_samples = 480;
  config.r = 8;
  config.num_eigenpairs = 16;
  config.mesh_area_fraction = 0.01;
  config.seed = 3;
  config.num_threads = 2;
  config.store_root = store_root.string();
  config.lease_ttl_ms = kDistTtlMs;
  config.mc_block_size = 8;
  config.mc_lease_blocks = 3;
  return config;
}

serve::RunSstaRequest dist_request(const ssta::ExperimentConfig& config,
                                   const std::string& run_id, bool resume) {
  serve::RunSstaRequest request;
  request.circuit = config.circuit;
  request.num_samples = config.num_samples;
  request.r = config.r;
  request.num_eigenpairs = config.num_eigenpairs;
  request.mesh_area_fraction = config.mesh_area_fraction;
  request.kernel_c = config.kernel_c;
  request.seed = config.seed;
  request.num_threads = config.num_threads;
  request.run_id = run_id;
  request.resume = resume;
  request.distributed = true;
  request.mc_block_size = config.mc_block_size;
  request.mc_lease_blocks = config.mc_lease_blocks;
  return request;
}

/// Shared state of one mc-dist invocation: the uninterrupted reference the
/// scenarios must reproduce bit for bit, and the pipeline/store the parent
/// uses to verify each scenario's ledger. Building the reference first also
/// warms the KLE artifact on disk, so every forked coordinator generation
/// fetches it instead of re-solving.
struct DistHarness {
  explicit DistHarness(const fs::path& root_in)
      : root(root_in),
        config(dist_config(root_in / "store")),
        sock((fs::temp_directory_path() /
              ("sckl_dist_" + std::to_string(::getpid()) + ".sock"))
                 .string()),
        pipeline(config),
        store(root_in / "store") {
    ssta::KleRunRequest request;
    request.r = config.r;
    request.num_eigenpairs = config.num_eigenpairs;
    request.store = &store;
    request.run_id = "dist-reference";
    reference = pipeline.run_kle(request).ssta;
  }

  fs::path root;
  ssta::ExperimentConfig config;
  std::string sock;  // short /tmp path: sun_path has a ~100 byte limit
  ssta::ExperimentPipeline pipeline;
  store::KleArtifactStore store;
  ssta::McSstaResult reference;
};

/// Forks `body` without waiting (the dist scenarios run a whole fleet).
template <typename Body>
pid_t spawn_child(Body&& body) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    int status = 1;
    try {
      status = body();
    } catch (...) {
      status = 3;
    }
    std::_Exit(status);
  }
  return pid;
}

int wait_child(pid_t pid) {
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0) {
  }
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 128 + WTERMSIG(wstatus);
}

/// Body of one coordinator generation: a Server plus an in-process client
/// issuing the distributed RunSsta. On success the child keeps serving
/// until the parent drops the stop file, so workers reliably observe the
/// terminal kComplete instead of racing the daemon's shutdown.
int coordinator_child(const DistHarness& h, const std::string& run_id,
                      bool resume, bool arm_crash, std::uint64_t crash_skip,
                      bool expect_expiry) {
  if (arm_crash)
    robust::FaultInjector::instance().arm(
        robust::FaultSite::kMcCoordinatorCrash, 1, crash_skip);
  serve::ServerOptions options;
  options.unix_path = h.sock;
  options.store_root = (h.root / "store").string();
  options.num_threads = 4;
  options.default_deadline_ms = 120'000;
  options.lease_ttl_ms = kDistTtlMs;
  options.heartbeat_interval_ms = kDistHeartbeatMs;
  serve::Server server(options);
  server.start();
  serve::Client client = serve::Client::connect_unix(h.sock);
  client.set_deadline_ms(120'000);
  client.run_ssta(dist_request(h.config, run_id, resume));
  // The stalled worker's lease must actually have been reclaimed: every
  // path that completes its lease (reject-on-publish, reclaim-by-claim)
  // goes through expire_locked, so a zero counter means the TTL machinery
  // never fired and the scenario proved nothing.
  if (expect_expiry &&
      obs::counter("sckl.ssta.mc.leases_expired").value() == 0)
    return 7;
  std::ofstream(h.root / (run_id + ".done")) << "done";
  for (int i = 0; i < 3'000; ++i) {
    if (fs::exists(h.root / (run_id + ".stop"))) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.stop();
  return 0;
}

/// Body of one worker process. Reports land in a per-worker file so the
/// parent can assert on retries/rejections after the fleet drains.
int worker_child(const DistHarness& h, const std::string& run_id,
                 std::size_t index, robust::FaultSite armed_site,
                 int armed_count) {
  if (armed_count > 0)
    robust::FaultInjector::instance().arm(armed_site, armed_count);
  serve::WorkerOptions options;
  options.unix_path = h.sock;
  options.run_id = run_id;
  options.worker_id = 100 + index;
  options.poll_ms = 25;
  options.rpc_timeout_ms = 3'000;
  options.max_runtime_seconds = 120.0;  // backstop: never hang the harness
  const serve::WorkerReport report = serve::run_worker(options);
  std::ofstream out(h.root / (run_id + ".worker." + std::to_string(index)));
  out << report.leases_computed << ' ' << report.blocks_computed << ' '
      << report.publishes_rejected << ' ' << report.heartbeats << ' '
      << report.rpc_retries << ' ' << (report.run_complete ? 1 : 0) << '\n';
  return report.run_complete ? 0 : 4;
}

struct WorkerOutcome {
  bool found = false;
  std::size_t leases = 0, blocks = 0, rejected = 0, heartbeats = 0,
              retries = 0;
  int complete = 0;
};

WorkerOutcome read_worker_outcome(const DistHarness& h,
                                  const std::string& run_id,
                                  std::size_t index) {
  WorkerOutcome o;
  std::ifstream in(h.root / (run_id + ".worker." + std::to_string(index)));
  if (in >> o.leases >> o.blocks >> o.rejected >> o.heartbeats >> o.retries >>
      o.complete)
    o.found = true;
  return o;
}

/// One RunStatus poll against the coordinator daemon; nullopt while the
/// daemon is down or not yet serving (both normal mid-scenario).
std::optional<serve::RunStatusReply> poll_status(const DistHarness& h,
                                                 const std::string& run_id) {
  try {
    serve::Client client = serve::Client::connect_unix(h.sock);
    client.set_rpc_timeout_ms(2'000);
    serve::RunStatusRequest request;
    request.run_id = run_id;
    return client.run_status(request);
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// Lets the coordinator exit its post-run serving loop, then reaps it.
void stop_coordinator(const DistHarness& h, const std::string& run_id,
                      pid_t coordinator, const std::string& context) {
  std::ofstream(h.root / (run_id + ".stop")) << "stop";
  const int status = wait_child(coordinator);
  check(status == 0, context + ": coordinator exited " +
                         std::to_string(status) + ", expected 0" +
                         (status == 7 ? " (no lease expiry was observed)"
                                      : ""));
}

/// The distributed invariant, asserted from the parent after the fleet is
/// gone: resuming the scenario's ledger locally loads every lease from disk
/// (zero lost, zero recomputed — a double-counted lease would double the
/// fold and break the bit comparison) and reproduces the uninterrupted
/// reference statistics exactly.
void verify_dist_run(DistHarness& h, const std::string& run_id,
                     const std::string& context) {
  ssta::KleRunRequest request;
  request.r = h.config.r;
  request.num_eigenpairs = h.config.num_eigenpairs;
  request.store = &h.store;
  request.run_id = run_id;
  request.resume = true;
  const ssta::KleRunOutcome outcome = h.pipeline.run_kle(request);
  check(outcome.mc_run.leases_claimed == 0,
        context + ": resume of the completed run recomputed " +
            std::to_string(outcome.mc_run.leases_claimed) + " lease(s)");
  check(outcome.mc_run.leases_resumed == outcome.mc_run.leases_total,
        context + ": resumed " +
            std::to_string(outcome.mc_run.leases_resumed) + " of " +
            std::to_string(outcome.mc_run.leases_total) + " leases");
  check(results_bit_identical(outcome.ssta, h.reference),
        context + ": distributed statistics differ from the uninterrupted "
                  "reference (distributed invariant broken)");
}

/// SIGKILL each worker at a successive progress milestone while the run is
/// live; the coordinator must reclaim their leases and finish alone.
void scenario_worker_kill(DistHarness& h) {
  const std::string run_id = "dist-worker-kill";
  const std::string context = "mc-dist worker_kill";
  std::vector<pid_t> workers;
  for (std::size_t i = 0; i < 3; ++i)
    workers.push_back(spawn_child([&, i] {
      return worker_child(h, run_id, i, robust::FaultSite::kMcRpcTransient,
                          /*armed_count=*/0);
    }));
  const pid_t coordinator = spawn_child([&] {
    return coordinator_child(h, run_id, /*resume=*/false, /*arm_crash=*/false,
                             0, /*expect_expiry=*/false);
  });

  const std::size_t milestones[3] = {1, 6, 12};
  std::size_t next = 0;
  int killed_while_running = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(90);
  while (next < workers.size() && std::chrono::steady_clock::now() < give_up) {
    const std::optional<serve::RunStatusReply> status =
        poll_status(h, run_id);
    if (status.has_value()) {
      if (status->run_state == serve::RunState::kComplete) break;
      if (status->run_state == serve::RunState::kRunning &&
          status->leases_complete >= milestones[next]) {
        ::kill(workers[next], SIGKILL);
        ++killed_while_running;
        ++next;
        continue;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  check(killed_while_running >= 1,
        context + ": the run finished before any worker could be killed "
                  "mid-run (workload too small for this machine?)");
  for (; next < workers.size(); ++next) ::kill(workers[next], SIGKILL);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const int status = wait_child(workers[i]);
    check(status == 137 || status == 0,
          context + ": worker " + std::to_string(i) + " exited " +
              std::to_string(status) + ", expected SIGKILL (137) or 0");
  }
  stop_coordinator(h, run_id, coordinator, context);
  verify_dist_run(h, run_id, context);
  std::printf("mc-dist worker_kill:          %d worker(s) killed mid-run, "
              "resume bit-identical\n",
              killed_while_running);
}

/// One worker's RPCs fail transiently (armed mc_rpc_transient); its retry
/// loop must absorb them and the whole fleet completes normally.
void scenario_rpc_transient(DistHarness& h) {
  const std::string run_id = "dist-rpc-transient";
  const std::string context = "mc-dist mc_rpc_transient";
  std::vector<pid_t> workers;
  for (std::size_t i = 0; i < 3; ++i)
    workers.push_back(spawn_child([&, i] {
      return worker_child(h, run_id, i, robust::FaultSite::kMcRpcTransient,
                          i == 0 ? 3 : 0);
    }));
  const pid_t coordinator = spawn_child([&] {
    return coordinator_child(h, run_id, /*resume=*/false, /*arm_crash=*/false,
                             0, /*expect_expiry=*/false);
  });
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const int status = wait_child(workers[i]);
    check(status == 0, context + ": worker " + std::to_string(i) +
                           " exited " + std::to_string(status));
  }
  stop_coordinator(h, run_id, coordinator, context);

  const WorkerOutcome faulted = read_worker_outcome(h, run_id, 0);
  check(faulted.found, context + ": no outcome file from the faulted worker");
  check(faulted.retries >= 3,
        context + ": faulted worker absorbed " +
            std::to_string(faulted.retries) + " retries, expected >= 3");
  std::size_t remote_leases = 0;
  for (std::size_t i = 0; i < workers.size(); ++i)
    remote_leases += read_worker_outcome(h, run_id, i).leases;
  check(remote_leases >= 1,
        context + ": no lease was computed remotely — the scenario never "
                  "exercised the distributed path");
  verify_dist_run(h, run_id, context);
  std::printf("mc-dist mc_rpc_transient:     %zu retries absorbed, %zu "
              "remote lease(s), resume bit-identical\n",
              faulted.retries, remote_leases);
}

/// One worker wedges past the lease TTL without heartbeating (armed
/// mc_worker_stall); the coordinator must expire + reclaim its lease, and
/// the duplicate publish after it wakes cannot corrupt the run.
void scenario_worker_stall(DistHarness& h) {
  const std::string run_id = "dist-worker-stall";
  const std::string context = "mc-dist mc_worker_stall";
  std::vector<pid_t> workers;
  for (std::size_t i = 0; i < 3; ++i)
    workers.push_back(spawn_child([&, i] {
      return worker_child(h, run_id, i, robust::FaultSite::kMcWorkerStall,
                          i == 0 ? 1 : 0);
    }));
  const pid_t coordinator = spawn_child([&] {
    return coordinator_child(h, run_id, /*resume=*/false, /*arm_crash=*/false,
                             0, /*expect_expiry=*/true);
  });
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const int status = wait_child(workers[i]);
    check(status == 0, context + ": worker " + std::to_string(i) +
                           " exited " + std::to_string(status));
  }
  stop_coordinator(h, run_id, coordinator, context);
  verify_dist_run(h, run_id, context);
  std::printf("mc-dist mc_worker_stall:      lease expired and reclaimed, "
              "resume bit-identical\n");
}

/// Kill the coordinator right after durable ledger appends, generation
/// after generation with the skip marching forward (mc_coordinator_crash),
/// while the same three workers ride every restart through their reconnect
/// loops. Each crashed generation has already made durable progress, so the
/// marching terminates.
void scenario_coordinator_crash(DistHarness& h) {
  const std::string run_id = "dist-coord-crash";
  const std::string context = "mc-dist mc_coordinator_crash";
  std::vector<pid_t> workers;
  for (std::size_t i = 0; i < 3; ++i)
    workers.push_back(spawn_child([&, i] {
      return worker_child(h, run_id, i, robust::FaultSite::kMcRpcTransient,
                          /*armed_count=*/0);
    }));

  int kills = 0;
  bool survived = false;
  for (std::uint64_t generation = 0; generation < 40; ++generation) {
    const pid_t coordinator = spawn_child([&] {
      return coordinator_child(h, run_id, /*resume=*/generation > 0,
                               /*arm_crash=*/true, /*crash_skip=*/generation,
                               /*expect_expiry=*/false);
    });
    // A crashed generation _Exit()s straight out of commit_locked; a
    // surviving one finishes the run, writes the done file, and keeps
    // serving until stop_coordinator below. Wait for whichever comes first.
    int status = 0;
    for (;;) {
      int wstatus = 0;
      const pid_t reaped = ::waitpid(coordinator, &wstatus, WNOHANG);
      if (reaped == coordinator) {
        status = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus)
                                    : 128 + WTERMSIG(wstatus);
        break;
      }
      if (fs::exists(h.root / (run_id + ".done"))) {
        status = -1;  // alive and serving the terminal state
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (status == robust::kCrashExitCode) {
      ++kills;
      continue;
    }
    check(status == -1, context + ": coordinator generation " +
                            std::to_string(generation) + " exited " +
                            std::to_string(status) +
                            ", expected a crash or a completed run");
    if (status != -1) break;  // don't hang on a broken generation
    // The generation survived: workers observe kComplete and drain.
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const int worker_status = wait_child(workers[i]);
      check(worker_status == 0,
            context + ": worker " + std::to_string(i) + " exited " +
                std::to_string(worker_status) + " across " +
                std::to_string(kills) + " coordinator crash(es)");
    }
    stop_coordinator(h, run_id, coordinator, context);
    survived = true;
    break;
  }
  check(survived, context + ": no generation survived within the budget");
  check(kills >= 2, context + ": only " + std::to_string(kills) +
                        " coordinator kill(s), expected >= 2");
  verify_dist_run(h, run_id, context);
  std::printf("mc-dist mc_coordinator_crash: %d coordinator kill(s), "
              "workers survived, resume bit-identical\n",
              kills);
}

int drive_mc_dist(const fs::path& root) {
  fs::remove_all(root);
  fs::create_directories(root);
  DistHarness h(root);
  scenario_worker_kill(h);
  scenario_rpc_transient(h);
  scenario_worker_stall(h);
  scenario_coordinator_crash(h);
  fs::remove(h.sock);
  return failures == 0 ? 0 : 1;
}

int drive_stampede(const fs::path& root, int num_procs) {
  fs::remove_all(root);
  fs::create_directories(root);
  const fs::path outcome_dir = root / "outcomes";
  fs::create_directories(outcome_dir);
  const std::uint64_t v = 424242;

  std::vector<pid_t> children;
  for (int i = 0; i < num_procs; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 2;
    }
    if (pid == 0) {
      int status = 1;
      try {
        store::KleArtifactStore store(root / "repo");
        const store::FetchResult fetch =
            store.get_or_compute(variant_config(v), variant_kernel(v));
        std::ofstream(outcome_dir / ("child." + std::to_string(i) + ".txt"))
            << to_string(fetch.source);
        status = 0;
      } catch (...) {
        status = 3;
      }
      std::_Exit(status);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0) {
    }
    check(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0,
          "stampede child did not exit cleanly");
  }

  int solved = 0, disk = 0, other = 0;
  for (int i = 0; i < num_procs; ++i) {
    std::ifstream in(outcome_dir / ("child." + std::to_string(i) + ".txt"));
    std::string source;
    in >> source;
    if (source == "solved") ++solved;
    else if (source == "disk") ++disk;
    else ++other;
  }
  std::printf("stampede: %d processes on one cold key -> %d solved, %d disk "
              "loads, %d other\n",
              num_procs, solved, disk, other);
  check(solved == 1, "expected exactly one solve across the stampede, got " +
                         std::to_string(solved));
  check(disk == num_procs - 1,
        "expected every non-winner to load from disk, got " +
            std::to_string(disk));
  return failures == 0 ? 0 : 1;
}

#endif  // SCKL_HAVE_FORK

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: kill_loop_harness <drive|stampede|mc|mc-dist> "
                 "[--root=DIR] [--iters=N] [--procs=N] [--min-kills=N]\n");
    return 2;
  }
#if !SCKL_HAVE_FORK
  std::printf("kill_loop_harness: fork() unavailable on this platform, "
              "skipping\n");
  return 0;
#else
  const std::string command = flags.positional().front();
  const fs::path root = flags.get_string(
      "root", (fs::temp_directory_path() / "sckl_kill_loop").string());
  robust::FaultInjector::instance().disarm();  // the parent never crashes
  try {
    if (command == "drive")
      return drive_kill_loop(root,
                             static_cast<int>(flags.get_int("iters", 5)));
    if (command == "stampede")
      return drive_stampede(root, static_cast<int>(flags.get_int("procs", 6)));
    if (command == "mc")
      return drive_mc_kill_loop(
          root, static_cast<int>(flags.get_int("min-kills", 3)));
    if (command == "mc-dist") return drive_mc_dist(root);
  } catch (const Error& e) {
    std::fprintf(stderr, "kill_loop_harness: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "kill_loop_harness: unknown command '%s'\n",
               command.c_str());
  return 2;
#endif
}
