// Workload kle_matfree: matrix-free KLE solves at n = 101,124.
//
// Why: H-matrix build and apply plus operator Lanczos do all the work;
// refinement and dense assembly do none (the structured cross mesh is built
// once, in set-up). At this n the dense matrix would take 82 GB, so the
// workload sits on the far side of the n threshold a single KLE route has to
// pick, with kle_offline on the near side. The eigensolve only ever needs
// y = Kx (Safta & Najm), which is what the hierarchical operator provides.
// Each solve: Gaussian paper fit, OperatorMode::kMatrixFree, ACA tolerance
// 1e-8, m = 8, 2 threads. Measured on a 4-vCPU KVM host (one run): 9.5 s
// wall, 17.4 CPU s, 27 Lanczos iterations, 988 MiB peak RSS.
//
// Unit of work: one solve.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/kle_solver.h"
#include "harness.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/structured_mesher.h"

namespace perfbench {

using namespace sckl;

namespace {

constexpr std::size_t kTargetTriangles = 100'000;  // -> n = 101,124
/// Leading eigenvalue recorded at this n by BENCH_matfree.json.
constexpr double kLambda0 = 0.846092;
/// Set-up (the structured mesh) takes milliseconds, so its median is read
/// over more repetitions than the other workloads'.
constexpr std::size_t kSetups = 9;

}  // namespace

WorkloadResult run_kle_matfree(const Args& args, Tally& tally,
                               Tracer& tracer) {
  std::unique_ptr<mesh::TriMesh> mesh;
  std::unique_ptr<kernels::GaussianKernel> kernel;
  core::KleOptions options;
  WorkloadResult result;
  result.setup_s = timed_setups(args, tracer, kSetups, [&] {
    {
      obs::Span span("bench.structured_mesh");
      mesh = std::make_unique<mesh::TriMesh>(mesh::structured_mesh_for_count(
          geometry::BoundingBox::unit_die(), kTargetTriangles));
    }
    kernel = std::make_unique<kernels::GaussianKernel>(
        kernels::paper_gaussian_c());
    options = core::KleOptions{};
    options.num_eigenpairs = 8;
    options.operator_mode = core::OperatorMode::kMatrixFree;
    options.matfree.aca_tolerance = 1e-8;
    options.matfree.num_threads = kThreads;
    // The seed picks the Lanczos start vector; the spectrum must not move.
    options.lanczos_seed = args.seed;
  }, [&] { mesh.reset(); });

  std::vector<double> solves;
  std::size_t iterations = 0;
  core::KleSolveInfo info;
  const Clock::time_point window = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const double elapsed = seconds_between(window, Clock::now());
    if (k >= 2 && elapsed + median(solves) > args.seconds) break;
    const bool traced = tracer.traces_unit(k);
    if (traced) tracer.begin(/*setup=*/false);
    const Clock::time_point t0 = Clock::now();
    try {
      std::unique_ptr<core::KleResult> kle;
      {
        obs::Span span("bench.solve_kle");
        kle = std::make_unique<core::KleResult>(
            core::solve_kle(*mesh, *kernel, options, &info));
      }
      const double seconds = seconds_between(t0, Clock::now());
      solves.push_back(seconds);
      tracer.record_unit(k, seconds);
      if (traced) tracer.add_ops(1);
      tally.record(true, "solve");
      iterations = info.lanczos.iterations;
      tally.record(info.operator_used == "hmat",
                   "kle_matfree: operator_used = " + info.operator_used +
                       ", expected hmat");
      const double lambda0 = kle->eigenvalue(0);
      tally.record(std::abs(lambda0 - kLambda0) <= 5e-7,
                   "kle_matfree: lambda_0 = " + json_number(lambda0) +
                       ", expected " + json_number(kLambda0));
    } catch (const std::exception& e) {
      tally.record(false, std::string("kle_matfree solve: ") + e.what());
    }
    if (traced) tracer.end();
  }

  const double n = static_cast<double>(mesh->num_triangles());
  double total = 0.0;
  for (const double s : solves) total += s;
  result.unit = "one matrix-free solve (n = 101124, m = 8)";
  result.units = solves.size();
  result.op_ms = 1e3 * median(solves);
  result.ops_per_s = static_cast<double>(solves.size()) / total;
  add_fact(result, "n", n);
  add_fact(result, "m", 8);
  add_fact(result, "solves", static_cast<double>(solves.size()));
  add_fact(result, "lanczos_iterations", static_cast<double>(iterations));
  add_fact(result, "hmat_compressed_bytes",
           static_cast<double>(info.hmat.compressed_bytes));
  add_fact(result, "computed.dense_equivalent_bytes", 8.0 * n * n);
  add_fact(result, "computed.compression",
           static_cast<double>(info.hmat.compressed_bytes) / (8.0 * n * n));

  if (tracer.enabled()) {
    tracer.finish();
    add_traced_layers(tracer, result.layers);
    result.layers["mesh.triangles"] = n;
  }
  return result;
}

}  // namespace perfbench
