// The sckl_serve daemon and its command-line client.
//
//   sckl_serve serve    --socket=PATH [--tcp] [--port=0] --root=DIR
//                       [--threads=0] [--max-queue=64] [--deadline-ms=30000]
//                       [--max-sample-rows=1048576] [--block-samples=2048]
//                       [--drain-ms=2000] [--lease-ttl=300000]
//                       [--heartbeat-ms=1000]
//       Runs the daemon until SIGTERM/SIGINT or a shutdown request, then
//       drains gracefully and exits 0. Workers serve one request at a time
//       in arrival order, with no request batching.
//   sckl_serve ping     --socket=PATH | --port=P
//       Hello round-trip; prints the server identification.
//   sckl_serve stats    --socket=PATH | --port=P
//       Prints the server's sckl-serve-stats-v1 JSON document.
//   sckl_serve solve    --socket=PATH | --port=P [KLE flags]
//       Asks the server to solve (or re-serve) one KLE; prints provenance.
//       The KLE flags are kle_store_tool build's (store::parse_kle_config),
//       so both tools name the same artifact key for the same flags.
//   sckl_serve work     --socket=PATH | --port=P --run-id=NAME
//                       [--worker-id=N] [--max-leases=1] [--poll-ms=200]
//                       [--rpc-timeout-ms=5000] [--max-runtime=0]
//       Runs a distributed Monte Carlo worker against a coordinator that
//       started (or will start) a RunSsta with distributed=1 under the
//       same run id; prints a one-line report when the run completes.
//   sckl_serve shutdown --socket=PATH | --port=P
//       Asks the server to shut down gracefully.
//
// The serve subcommand participates in tracing like every other binary
// (--trace / --trace-json=PATH / SCKL_TRACE); the trace report flushes
// after the drain completes, so a SIGTERM still produces the exports.
#include <cstdio>
#include <limits>
#include <string>

#include "common/cli.h"
#include "common/error.h"
#include "obs/export.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/worker.h"

namespace {

using namespace sckl;

/// A count, duration or port flag read into T: a negative value or one past
/// T's range is a typed error, never a wrapped one.
template <typename T>
T get_bounded(const CliFlags& flags, const std::string& name, T fallback) {
  const std::size_t value =
      flags.get_size(name, static_cast<std::size_t>(fallback));
  require(value <= static_cast<std::size_t>(std::numeric_limits<T>::max()),
          "sckl_serve: --" + name + " exceeds " +
              std::to_string(std::numeric_limits<T>::max()));
  return static_cast<T>(value);
}

serve::Client connect(const CliFlags& flags) {
  if (flags.has("port"))
    return serve::Client::connect_tcp(
        get_bounded<std::uint16_t>(flags, "port", 0));
  return serve::Client::connect_unix(
      flags.get_string("socket", "/tmp/sckl_serve.sock"));
}

int cmd_serve(const CliFlags& flags) {
  serve::ServerOptions options;
  options.unix_path = flags.get_string("socket", "/tmp/sckl_serve.sock");
  options.tcp = flags.get_bool("tcp", false) || flags.has("port");
  options.tcp_port = get_bounded<std::uint16_t>(flags, "port", 0);
  options.store_root = flags.get_string("root", ".sckl-store");
  options.num_threads = flags.get_size("threads", 0);
  options.max_queue = flags.get_size("max-queue", 64);
  options.default_deadline_ms =
      get_bounded(flags, "deadline-ms", options.default_deadline_ms);
  options.max_sample_rows =
      flags.get_size("max-sample-rows", options.max_sample_rows);
  if (flags.has("block-samples")) {
    // Shared --block-samples spelling (common/cli ExperimentFlagSet): the
    // per-chunk row count of streamed sample replies. An explicit value is
    // validated against the server's cap; the Server ctor silently clamps
    // only the built-in default.
    options.sample_chunk_rows =
        flags.get_size("block-samples", options.sample_chunk_rows);
    require(options.sample_chunk_rows >= 1,
            "serve: --block-samples must be at least 1");
    require(options.sample_chunk_rows <= options.max_sample_rows,
            "serve: --block-samples exceeds --max-sample-rows");
  }
  options.drain_ms = get_bounded(flags, "drain-ms", 2000);
  options.lease_ttl_ms =
      get_bounded(flags, "lease-ttl", options.lease_ttl_ms);
  options.heartbeat_interval_ms =
      get_bounded(flags, "heartbeat-ms", options.heartbeat_interval_ms);
  return serve::run_daemon(options);
}

int cmd_ping(const CliFlags& flags) {
  serve::Client client = connect(flags);
  const serve::HelloReply hello = client.hello();
  std::printf("%s (protocol v%u)\n", hello.server.c_str(),
              hello.protocol_version);
  return 0;
}

int cmd_stats(const CliFlags& flags) {
  serve::Client client = connect(flags);
  std::printf("%s", client.stats().json.c_str());
  return 0;
}

int cmd_solve(const CliFlags& flags) {
  serve::SolveKleRequest request;
  request.config = store::parse_kle_config(flags);
  serve::Client client = connect(flags);
  const serve::SolveKleReply reply = client.solve_kle(request);
  std::printf("solve: key=%s source=%s wall=%.4fs triangles=%llu "
              "eigenpairs=%llu\n",
              store::key_string(reply.key).c_str(),
              to_string(static_cast<store::FetchSource>(reply.source)),
              reply.seconds,
              static_cast<unsigned long long>(reply.mesh_triangles),
              static_cast<unsigned long long>(reply.num_eigenpairs));
  return 0;
}

int cmd_work(const CliFlags& flags) {
  serve::WorkerOptions options;
  if (flags.has("port"))
    options.tcp_port = get_bounded<std::uint16_t>(flags, "port", 0);
  else
    options.unix_path = flags.get_string("socket", "/tmp/sckl_serve.sock");
  options.run_id = flags.get_string("run-id", "");
  options.worker_id =
      static_cast<std::uint64_t>(flags.get_int("worker-id", 0));
  options.max_leases_per_claim = flags.get_size("max-leases", 1);
  options.poll_ms = get_bounded(flags, "poll-ms", 200);
  options.rpc_timeout_ms = get_bounded(flags, "rpc-timeout-ms", 5000);
  options.max_runtime_seconds = flags.get_double("max-runtime", 0.0);
  const serve::WorkerReport report = serve::run_worker(options);
  std::printf("worker %llu: leases=%zu blocks=%zu rejected=%zu "
              "heartbeats=%zu retries=%zu complete=%d\n",
              static_cast<unsigned long long>(report.worker_id),
              report.leases_computed, report.blocks_computed,
              report.publishes_rejected, report.heartbeats,
              report.rpc_retries, report.run_complete ? 1 : 0);
  return report.run_complete ? 0 : 3;
}

int cmd_shutdown(const CliFlags& flags) {
  serve::Client client = connect(flags);
  client.shutdown_server();
  std::printf("shutdown acknowledged\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sckl;
  const CliFlags flags(argc, argv);
  return obs::run_tool("sckl_serve", flags, [&] {
    if (flags.positional().empty()) {
      std::fprintf(stderr,
                   "usage: sckl_serve <serve|ping|stats|solve|work|shutdown> "
                   "[--socket=PATH | --port=P] [options]\n");
      return 2;
    }
    const std::string command = flags.positional().front();
    if (command == "serve") return cmd_serve(flags);
    if (command == "ping") return cmd_ping(flags);
    if (command == "stats") return cmd_stats(flags);
    if (command == "solve") return cmd_solve(flags);
    if (command == "work") return cmd_work(flags);
    if (command == "shutdown") return cmd_shutdown(flags);
    std::fprintf(stderr, "sckl_serve: unknown command '%s'\n",
                 command.c_str());
    return 2;
  });
}
