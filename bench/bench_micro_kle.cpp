// Micro-benchmarks (google-benchmark) for the method's building blocks:
//  - Galerkin assembly cost vs mesh size n,
//  - eigensolve cost: dense QL vs Lanczos top-r (the paper's MATLAB eigs
//    took 11.2 s for 200 pairs at n = 1546),
//  - per-sample generation throughput: Algorithm 1 (O(N_g^2)) vs
//    Algorithm 2 (O(N_g r)) — the source of Table 1's speedup,
//  - STA evaluation cost per sample,
//  - artifact-store cold solve vs warm load (the offline/online split).
//
// --json=PATH additionally times the artifact store on a 1600-triangle mesh
// (cold Galerkin+eigensolve+persist, warm disk load, warm memory hit) and
// appends one {"bench": ..., "wall_ms": ...} JSON record per measurement to
// PATH — the input of the BENCH_*.json perf trajectory. Combine with
// --benchmark_filter=NONE to emit only the JSON records.
//
// --trace / --trace-json=PATH / SCKL_TRACE=1 arm the observability layer;
// when tracing is active each --json/--json-mc payload also gains one
// {"bench": "...", "trace": <sckl-trace-v1>} record so the per-phase
// breakdown travels with the perf numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "circuit/synthetic.h"
#include "common/cli.h"
#include "common/machine.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "core/kle_solver.h"
#include "field/cholesky_sampler.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "linalg/gemm.h"
#include "linalg/symmetric_eigen.h"
#include "mesh/structured_mesher.h"
#include "placer/recursive_placer.h"
#include "ssta/mc_ssta.h"
#include "store/artifact_store.h"
#include "timing/sta.h"

namespace {

using namespace sckl;

const kernels::GaussianKernel& paper_kernel() {
  static const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  return kernel;
}

/// One JSON-lines record per line: flatten the pretty-printed trace document
/// so the embedding record stays single-line.
std::string compact_trace_json() {
  std::string doc = obs::trace_json_string();
  for (char& c : doc) {
    if (c == '\n') c = ' ';
  }
  return doc;
}

mesh::TriMesh mesh_of(std::size_t n) {
  return mesh::structured_mesh_for_count(geometry::BoundingBox::unit_die(),
                                         n, mesh::StructuredPattern::kCross);
}

void BM_GalerkinAssembly(benchmark::State& state) {
  const mesh::TriMesh mesh = mesh_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::assemble_galerkin_matrix(mesh, paper_kernel()));
  }
  state.SetComplexityN(static_cast<long>(mesh.num_triangles()));
}
BENCHMARK(BM_GalerkinAssembly)->Arg(256)->Arg(576)->Arg(1024)->Arg(1600)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNSquared);

// Full QL on the assembled matrix: the reference the Lanczos route replaces.
void BM_EigensolveDense(benchmark::State& state) {
  const mesh::TriMesh mesh = mesh_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::symmetric_eigen(
        core::assemble_galerkin_matrix(mesh, paper_kernel())));
  }
}
BENCHMARK(BM_EigensolveDense)->Arg(256)->Arg(576)
    ->Unit(benchmark::kMillisecond);

void BM_EigensolveLanczos(benchmark::State& state) {
  const mesh::TriMesh mesh = mesh_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::KleOptions options;
    options.num_eigenpairs = 25;  // 3m < n: solve_kle's Lanczos stage
    benchmark::DoNotOptimize(core::solve_kle(mesh, paper_kernel(), options));
  }
}
BENCHMARK(BM_EigensolveLanczos)->Arg(256)->Arg(576)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

struct SamplerFixture {
  SamplerFixture(std::size_t gates, std::size_t r)
      : netlist(circuit::synthetic_circuit(
            {.name = "bench", .num_gates = gates, .seed = 3})),
        placement(placer::place(netlist)),
        locations(placement.physical_locations(netlist)),
        mesh(mesh_of(900)),
        kle([this] {
          core::KleOptions options;
          options.num_eigenpairs = 50;
          return core::solve_kle(mesh, paper_kernel(), options);
        }()),
        cholesky(paper_kernel(), locations),
        reduced(kle, r, locations) {}

  circuit::Netlist netlist;
  placer::Placement placement;
  std::vector<geometry::Point2> locations;
  mesh::TriMesh mesh;
  core::KleResult kle;
  field::CholeskyFieldSampler cholesky;
  field::KleFieldSampler reduced;
};

SamplerFixture& fixture_for(std::size_t gates) {
  static std::map<std::size_t, std::unique_ptr<SamplerFixture>> cache;
  auto& slot = cache[gates];
  if (!slot) slot = std::make_unique<SamplerFixture>(gates, 25);
  return *slot;
}

void BM_SampleBlockCholesky(benchmark::State& state) {
  SamplerFixture& fx = fixture_for(static_cast<std::size_t>(state.range(0)));
  const StreamKey key{5, 0};
  std::uint64_t first = 0;
  linalg::Matrix block;
  for (auto _ : state) {
    fx.cholesky.sample_block(field::SampleRange{first, 64}, key, block);
    first += 64;  // walk the stream like a real MC run would
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SampleBlockCholesky)->Arg(383)->Arg(880)->Arg(1669)
    ->Unit(benchmark::kMillisecond);

void BM_SampleBlockKle(benchmark::State& state) {
  SamplerFixture& fx = fixture_for(static_cast<std::size_t>(state.range(0)));
  const StreamKey key{5, 0};
  std::uint64_t first = 0;
  linalg::Matrix block;
  for (auto _ : state) {
    fx.reduced.sample_block(field::SampleRange{first, 64}, key, block);
    first += 64;
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SampleBlockKle)->Arg(383)->Arg(880)->Arg(1669)
    ->Unit(benchmark::kMillisecond);

void BM_StaEvaluation(benchmark::State& state) {
  SamplerFixture& fx = fixture_for(static_cast<std::size_t>(state.range(0)));
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(fx.netlist, fx.placement, library);
  linalg::Matrix block;
  fx.reduced.sample_block(field::SampleRange{0, 1}, StreamKey{6, 0}, block);
  const timing::ParameterView view{block.row_ptr(0), block.row_ptr(0),
                                   block.row_ptr(0), block.row_ptr(0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(view));
  }
}
BENCHMARK(BM_StaEvaluation)->Arg(383)->Arg(880)->Arg(1669)
    ->Unit(benchmark::kMicrosecond);

void BM_ArtifactDiskLoad(benchmark::State& state) {
  // Pre-build one artifact, then measure the warm disk path in isolation.
  const auto root =
      std::filesystem::temp_directory_path() / "sckl_bench_micro_store";
  store::KleArtifactConfig config;
  std::string id;
  std::vector<double> params;
  store::describe_kernel(paper_kernel(), id, params);
  config.kernel_id = id;
  config.kernel_params = params;
  config.mesh.target_triangles = static_cast<std::uint64_t>(state.range(0));
  config.num_eigenpairs = 50;
  store::KleArtifactStore builder(root);
  builder.get_or_compute(config, paper_kernel());
  const std::string path = builder.path_for(config).string();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::read_kle_file(path));
  }
}
BENCHMARK(BM_ArtifactDiskLoad)->Arg(576)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

/// Appends cold/warm artifact-store records to `json_path` and reports the
/// headline speedup on stdout. Returns false when the acceptance floor
/// (warm disk >= 50x faster than cold solve at n >= 1000) is missed.
bool emit_store_json(const std::string& json_path) {
  const auto root =
      std::filesystem::temp_directory_path() / "sckl_bench_store_json";
  std::filesystem::remove_all(root);

  store::KleArtifactConfig config;
  std::string id;
  std::vector<double> params;
  store::describe_kernel(paper_kernel(), id, params);
  config.kernel_id = id;
  config.kernel_params = params;
  config.mesh.kind = store::MeshSpec::Kind::kStructuredCross;
  config.mesh.target_triangles = 1546;  // cross split lands on 1600
  config.num_eigenpairs = 50;

  store::KleArtifactStore cold_store(root);
  const store::FetchResult cold = cold_store.get_or_compute(config, paper_kernel());
  store::KleArtifactStore warm_store(root);
  const store::FetchResult disk = warm_store.get_or_compute(config, paper_kernel());
  const store::FetchResult memory = warm_store.get_or_compute(config, paper_kernel());
  const std::size_t triangles = cold.artifact->mesh().num_triangles();

  std::FILE* f = std::fopen(json_path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_kle: cannot open %s\n", json_path.c_str());
    return false;
  }
  const auto record = [&](const char* name, double wall_ms) {
    std::fprintf(f,
                 "{\"bench\": \"%s\", \"wall_ms\": %.6f, \"triangles\": %zu, "
                 "\"eigenpairs\": %llu}\n",
                 name, wall_ms, triangles,
                 static_cast<unsigned long long>(config.num_eigenpairs));
  };
  record("kle_cold_solve_and_persist", cold.seconds * 1e3);
  record("kle_store_warm_disk_load", disk.seconds * 1e3);
  record("kle_store_warm_memory_hit", memory.seconds * 1e3);
  if (obs::trace_enabled())
    std::fprintf(f, "{\"bench\": \"store_trace\", \"trace\": %s}\n",
                 compact_trace_json().c_str());
  std::fclose(f);

  const double speedup = cold.seconds / std::max(disk.seconds, 1e-12);
  std::printf("artifact store @ n=%zu: cold=%.1fms disk=%.3fms memory=%.4fms "
              "(cold/disk = %.0fx)\ncache: %s\n",
              triangles, cold.seconds * 1e3, disk.seconds * 1e3,
              memory.seconds * 1e3, speedup,
              to_string(warm_store.cache_stats()).c_str());
  std::filesystem::remove_all(root);
  return cold.source == store::FetchSource::kSolved &&
         disk.source == store::FetchSource::kDisk &&
         memory.source == store::FetchSource::kMemory && speedup >= 50.0;
}

/// The KLE sampling throughput recorded by this bench before the batched
/// GEMM redesign (BENCH_mc_parallel.json history); the gate below requires
/// a 10x improvement over it on multi-core machines.
constexpr double kKleBaselineSamplesPerSec = 46244.0;

/// Appends Monte Carlo SSTA records to `json_path`:
///  - machine + SIMD-dispatch context (every record carries "simd_target"
///    and "hw_threads" so trajectories across heterogeneous runners stay
///    interpretable),
///  - time-budgeted sampler throughput for the Cholesky and KLE block
///    generators (budgeted, not fixed-count: the O(N_g^2) Cholesky path
///    would otherwise dominate the bench wall time),
///  - a KLE throughput gate at 10x the pre-GEMM baseline (warning-only on
///    single-hardware-thread machines, where CI containers land),
///  - bit-identity checks across block shapes and scalar-vs-SIMD dispatch,
///  - thread-scaling runs at 1/2/8 workers plus a block-size-invariance
///    run, each bit-compared against the serial result (the determinism
///    contract of the parallel block pipeline).
/// Throughput scaling depends on the machine's core count — records are
/// honest measurements, not asserted; determinism and the (multi-core)
/// throughput gate are.
bool emit_mc_parallel_json(const std::string& json_path,
                           std::size_t block_samples) {
  SamplerFixture& fx = fixture_for(1669);
  const timing::CellLibrary library = timing::CellLibrary::default_90nm();
  const timing::StaEngine engine(fx.netlist, fx.placement, library);
  const ssta::ParameterSamplers samplers{&fx.reduced, &fx.reduced,
                                         &fx.reduced, &fx.reduced};
  const std::size_t mc_block = block_samples > 0 ? block_samples : 64;

  std::FILE* f = std::fopen(json_path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_kle: cannot open %s\n",
                 json_path.c_str());
    return false;
  }

  const MachineContext machine = read_machine_context();
  // Shared context fields appended to every record: which kernel set the
  // dispatcher picked (detected, or forced via SCKL_SIMD) and how many
  // hardware threads the run had.
  const std::string ctx =
      std::string("\"simd_target\": \"") +
      linalg::simd_target_name(linalg::active_simd_target()) +
      "\", \"hw_threads\": " + std::to_string(machine.hardware_threads);

  // Machine context first: thread-scaling numbers are meaningless without
  // knowing how many cores the run actually had available (and whether the
  // cpufreq governor was pinning or scaling them).
  std::fprintf(f,
               "{\"bench\": \"mc_parallel_machine\", %s, "
               "\"resolved_auto_threads\": %zu, %s}\n",
               machine_context_json_fields(machine).c_str(),
               ThreadPool::resolve_num_threads(0), ctx.c_str());

  // Pure sampling throughput of the two block generators (no STA), the
  // quantity the batched-GEMM redesign exists to improve. Each generator
  // gets a fixed time budget and as many blocks as fit.
  const auto timed_rate = [](field::FieldSampler& sampler, std::size_t chunk,
                             double budget_seconds) {
    linalg::Matrix block;
    std::uint64_t first = 0;
    obs::Stopwatch timer;
    do {
      sampler.sample_block(field::SampleRange{first, chunk}, StreamKey{5, 0},
                           block);
      first += chunk;
    } while (timer.seconds() < budget_seconds);
    benchmark::DoNotOptimize(block.data());
    return std::pair<double, double>(static_cast<double>(first),
                                     timer.seconds());
  };
  const auto [chol_n, chol_s] = timed_rate(fx.cholesky, 64, 0.25);
  const std::size_t kle_chunk = block_samples > 0 ? block_samples : 2048;
  const auto [kle_n, kle_s] = timed_rate(fx.reduced, kle_chunk, 0.25);
  const double chol_rate = chol_n / chol_s;
  const double kle_rate = kle_n / kle_s;
  std::fprintf(f,
               "{\"bench\": \"sample_block_cholesky_1669\", \"wall_ms\": "
               "%.6f, \"samples\": %.0f, \"samples_per_sec\": %.1f, %s}\n",
               chol_s * 1e3, chol_n, chol_rate, ctx.c_str());
  std::fprintf(f,
               "{\"bench\": \"sample_block_kle_1669\", \"wall_ms\": %.6f, "
               "\"samples\": %.0f, \"samples_per_sec\": %.1f, %s}\n",
               kle_s * 1e3, kle_n, kle_rate, ctx.c_str());
  std::printf("sampling @ 1669 gates: cholesky %.0f samples/s, kle (r=25) "
              "%.0f samples/s\n",
              chol_rate, kle_rate);

  // Throughput gate: the batched hot path must clear 10x the pre-GEMM
  // KLE rate. Enforced only with real parallel memory bandwidth to spare —
  // on single-hardware-thread containers the record is advisory.
  const bool gate_enforced = machine.hardware_threads > 1;
  const bool gate_pass = kle_rate >= 10.0 * kKleBaselineSamplesPerSec;
  std::fprintf(f,
               "{\"bench\": \"kle_throughput_gate\", \"samples_per_sec\": "
               "%.1f, \"baseline_samples_per_sec\": %.1f, \"speedup\": %.2f, "
               "\"pass\": %s, \"enforced\": %s, %s}\n",
               kle_rate, kKleBaselineSamplesPerSec,
               kle_rate / kKleBaselineSamplesPerSec,
               gate_pass ? "true" : "false",
               gate_enforced ? "true" : "false", ctx.c_str());
  if (!gate_pass)
    std::fprintf(stderr,
                 "bench_micro_kle: KLE throughput %.0f samples/s is below "
                 "10x baseline (%.0f)%s\n",
                 kle_rate, 10.0 * kKleBaselineSamplesPerSec,
                 gate_enforced ? "" : " [advisory: single hardware thread]");

  // Bit-identity of the staged sampler across block shapes and dispatch
  // targets: rows [0, 1024) produced in one block, in 64-row blocks, in
  // ragged 257-row blocks, and (when SIMD is active) with the scalar
  // kernels forced, must all carry identical bits.
  bool deterministic = true;
  {
    const StreamKey key{7, 1};
    const std::size_t rows = 1024;
    const std::size_t cols = fx.reduced.num_locations();
    linalg::Matrix whole;
    fx.reduced.sample_block(field::SampleRange{0, rows}, key, whole);

    bool shapes_identical = true;
    linalg::Matrix part;
    for (const std::size_t chunk : {std::size_t{64}, std::size_t{257}}) {
      for (std::uint64_t first = 0; first < rows; first += chunk) {
        const std::size_t count =
            std::min<std::size_t>(chunk, rows - first);
        fx.reduced.sample_block(field::SampleRange{first, count}, key, part);
        for (std::size_t i = 0; i < count; ++i)
          shapes_identical =
              shapes_identical &&
              std::memcmp(whole.row_ptr(first + i), part.row_ptr(i),
                          cols * sizeof(double)) == 0;
      }
    }

    bool targets_identical = true;
    const linalg::SimdTarget active = linalg::active_simd_target();
    if (active != linalg::SimdTarget::kScalar) {
      linalg::set_simd_target(linalg::SimdTarget::kScalar);
      linalg::Matrix forced;
      fx.reduced.sample_block(field::SampleRange{0, rows}, key, forced);
      linalg::reset_simd_target();
      for (std::size_t i = 0; i < rows; ++i)
        targets_identical =
            targets_identical &&
            std::memcmp(whole.row_ptr(i), forced.row_ptr(i),
                        cols * sizeof(double)) == 0;
    }
    deterministic = shapes_identical && targets_identical;
    std::fprintf(f,
                 "{\"bench\": \"sample_block_bit_identity\", "
                 "\"block_shapes_identical\": %s, "
                 "\"scalar_vs_simd_identical\": %s, %s}\n",
                 shapes_identical ? "true" : "false",
                 targets_identical ? "true" : "false", ctx.c_str());
    std::printf("sample bit-identity: block shapes %s, scalar vs %s %s\n",
                shapes_identical ? "ok" : "MISMATCH",
                linalg::simd_target_name(active),
                targets_identical ? "ok" : "MISMATCH");
  }

  ssta::McSstaOptions options;
  options.num_samples = 768;
  options.block_size = mc_block;
  options.seed = 99;
  options.keep_samples = true;

  ssta::McSstaResult serial;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    options.num_threads = threads;
    const ssta::McSstaResult result =
        run_monte_carlo_ssta(engine, samplers, options);
    bool bit_identical = true;
    if (threads == 1) {
      serial = result;
    } else {
      bit_identical =
          result.worst_delay_samples == serial.worst_delay_samples &&
          result.worst_delay.mean() == serial.worst_delay.mean() &&
          result.worst_delay.stddev() == serial.worst_delay.stddev();
      deterministic = deterministic && bit_identical;
    }
    const double rate =
        static_cast<double>(options.num_samples) / result.total_seconds;
    std::fprintf(f,
                 "{\"bench\": \"mc_ssta_threads_%zu\", \"wall_ms\": %.6f, "
                 "\"samples_per_sec\": %.1f, \"threads\": %zu, "
                 "\"block_samples\": %zu, \"speedup_vs_serial\": %.3f, "
                 "\"bit_identical\": %s, %s}\n",
                 threads, result.total_seconds * 1e3, rate,
                 result.threads_used, mc_block,
                 serial.total_seconds / std::max(result.total_seconds, 1e-12),
                 bit_identical ? "true" : "false", ctx.c_str());
    std::printf("mc_ssta @ 1669 gates, %zu samples, threads=%zu: %.3fs "
                "(%.0f samples/s)%s\n",
                options.num_samples, threads, result.total_seconds, rate,
                threads == 1 ? "" : (bit_identical ? " [bit-identical]"
                                                   : " [MISMATCH]"));
  }

  // Block-size invariance at the MC level: a different block shape must
  // retain the very same worst-delay sample bits.
  {
    options.num_threads = 1;
    options.block_size = mc_block == 96 ? 128 : 96;
    const ssta::McSstaResult result =
        run_monte_carlo_ssta(engine, samplers, options);
    const bool bit_identical =
        result.worst_delay_samples == serial.worst_delay_samples;
    deterministic = deterministic && bit_identical;
    std::fprintf(f,
                 "{\"bench\": \"mc_ssta_block_invariance\", "
                 "\"block_samples\": %zu, \"reference_block_samples\": %zu, "
                 "\"bit_identical\": %s, %s}\n",
                 options.block_size, mc_block,
                 bit_identical ? "true" : "false", ctx.c_str());
    std::printf("mc_ssta block-size invariance (%zu vs %zu): %s\n",
                options.block_size, mc_block,
                bit_identical ? "bit-identical" : "MISMATCH");
  }

  if (obs::trace_enabled())
    std::fprintf(f, "{\"bench\": \"mc_parallel_trace\", \"trace\": %s}\n",
                 compact_trace_json().c_str());
  std::fclose(f);
  if (!deterministic)
    std::fprintf(stderr, "bench_micro_kle: MC/sampling results are NOT "
                         "bit-identical across shapes/threads/targets\n");
  return deterministic && (gate_pass || !gate_enforced);
}

}  // namespace

int main(int argc, char** argv) {
  // Extract our --json=PATH / --json-mc=PATH / --block-samples=N / --trace
  // / --trace-json=PATH flags before google-benchmark sees the argv.
  // --block-samples follows the shared ExperimentFlagSet spelling
  // (common/cli.h) and sets the MC block size of the --json-mc runs.
  std::string json_path;
  std::string json_mc_path;
  std::string trace_json_path;
  std::size_t block_samples = 0;
  bool trace_flag = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--json-mc=", 10) == 0) {
      json_mc_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--block-samples=", 16) == 0) {
      block_samples =
          static_cast<std::size_t>(std::strtoull(argv[i] + 16, nullptr, 10));
      if (block_samples > sckl::ExperimentFlagSet::kMaxBlockSamples) {
        std::fprintf(stderr, "bench_micro_kle: --block-samples too large\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      trace_json_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_flag = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  sckl::obs::TraceSession trace_session(trace_flag, trace_json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!json_path.empty() && !emit_store_json(json_path)) return 1;
  if (!json_mc_path.empty() &&
      !emit_mc_parallel_json(json_mc_path, block_samples))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
