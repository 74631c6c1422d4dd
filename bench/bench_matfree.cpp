// Matrix-free KLE scaling bench (DESIGN.md §14): solves eigenpairs with the
// hierarchical operator at triangle counts far past the dense ceiling and
// prints what that costs — the sweep behind EXPERIMENTS.md's matrix-free
// table.
//
//   bench_matfree [--sizes=10000,100000,1000000] [--pairs=8] [--aca-tol=1e-8]
//                 [--leaf=64] [--max-subspace=0] [--dense-max-n=20000]
//
// One matrix-free solve per n, printing build+solve wall time, compression
// statistics, process peak RSS (getrusage, so it includes every earlier
// size and reference solve), and — for sizes where the dense assembly is
// still feasible (n <= --dense-max-n) — the max relative eigenvalue error
// against the assembled-matrix Lanczos reference. The accuracy and peak-RSS
// gates are ctest suites (matfree_test, matfree_rss_test).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/cli.h"
#include "core/kle_solver.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/structured_mesher.h"
#include "obs/export.h"
#include "obs/stopwatch.h"

namespace {

using namespace sckl;

/// Peak resident set size of this process in MiB (0 when unknown).
double max_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
#endif
#else
  return 0.0;
#endif
}

struct SolveRecord {
  std::size_t n = 0;
  std::size_t pairs = 0;
  std::string op;          // which operator produced the spectrum
  double build_solve_s = 0.0;
  std::size_t iterations = 0;
  core::KleSolveInfo info;
  linalg::Vector eigenvalues;
  double lambda_err_max_rel = -1.0;  // vs dense reference; -1 = not measured
};

/// One matrix-free solve on a structured mesh of ~target triangles.
SolveRecord matfree_solve(std::size_t target, std::size_t pairs,
                          double aca_tol, std::size_t leaf,
                          std::size_t max_subspace) {
  mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), target);
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());

  core::KleOptions options;
  options.num_eigenpairs = pairs;
  options.operator_mode = core::OperatorMode::kMatrixFree;
  options.matfree.aca_tolerance = aca_tol;
  options.matfree.leaf_size = leaf;
  options.lanczos_max_subspace = max_subspace;

  SolveRecord record;
  record.n = mesh.num_triangles();
  record.pairs = pairs;
  obs::Stopwatch timer;
  const core::KleResult kle =
      core::solve_kle(std::move(mesh), kernel, options, &record.info);
  record.build_solve_s = timer.seconds();
  record.op = record.info.operator_used;
  record.iterations = record.info.lanczos.iterations;
  record.eigenvalues = kle.eigenvalues();
  return record;
}

/// Max relative eigenvalue error vs the assembled solve (solve_kle's default
/// route) on the same mesh size.
///
/// The square-die Gaussian spectrum has exactly degenerate pairs (symmetric
/// mode swaps), and single-vector Lanczos sees only one Ritz copy of an
/// exact multiplicity while the ACA-perturbed operator has the degeneracy
/// split so both copies surface. A positional pair-by-pair comparison
/// therefore breaks at any cluster straddling the truncation cut. Instead,
/// the dense reference is solved with guard pairs past the cut and each
/// matrix-free eigenvalue is scored against the closest reference value —
/// every converged Ritz value is provably within its residual of *some*
/// exact eigenvalue, so closest-match measures operator accuracy without
/// the multiplicity-ordering artifact. Pairs decayed below 1e-9 * lambda_0
/// are compared against lambda_0 instead (they sit inside both solvers'
/// noise floors).
double dense_reference_error(const SolveRecord& record, std::size_t target) {
  const mesh::TriMesh mesh = mesh::structured_mesh_for_count(
      geometry::BoundingBox::unit_die(), target);
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  constexpr std::size_t kGuardPairs = 6;
  core::KleOptions options;
  options.num_eigenpairs =
      std::min(record.pairs + kGuardPairs, mesh.num_triangles());
  const core::KleResult dense = core::solve_kle(mesh, kernel, options);

  const double lead = dense.eigenvalue(0);
  double worst = 0.0;
  for (std::size_t j = 0; j < record.pairs; ++j) {
    const double got = record.eigenvalues[j];
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < dense.num_eigenpairs(); ++k) {
      const double ref = dense.eigenvalue(k);
      const double scale = ref > 1e-9 * lead ? ref : lead;
      best = std::min(best, std::abs(got - ref) / scale);
    }
    worst = std::max(worst, best);
  }
  return worst;
}

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    sizes.push_back(static_cast<std::size_t>(
        std::strtoul(csv.substr(start, end - start).c_str(), nullptr, 10)));
    start = end + 1;
  }
  return sizes;
}

int run(const CliFlags& flags) {
  const std::size_t pairs = flags.get_size("pairs", 8);
  const double aca_tol = flags.get_double("aca-tol", 1e-8);
  const std::size_t leaf = flags.get_size("leaf", 64);
  const std::size_t max_subspace = flags.get_size("max-subspace", 0);
  const std::size_t dense_max_n = flags.get_size("dense-max-n", 20'000);
  const std::vector<std::size_t> sizes =
      parse_sizes(flags.get_string("sizes", "10000,100000,1000000"));
  for (const std::size_t n : sizes) {
    SolveRecord record = matfree_solve(n, pairs, aca_tol, leaf, max_subspace);
    if (record.n <= dense_max_n)
      record.lambda_err_max_rel = dense_reference_error(record, n);
    std::printf(
        "n=%zu operator=%s wall=%.2fs iters=%zu compressed=%.1fMiB "
        "(%.4fx dense) peak_rss=%.0fMiB lambda0=%.6g lambda_err=%.3g\n",
        record.n, record.op.c_str(), record.build_solve_s, record.iterations,
        static_cast<double>(record.info.hmat.compressed_bytes) /
            (1024.0 * 1024.0),
        record.info.hmat.compression, max_rss_mb(),
        record.eigenvalues.empty() ? 0.0 : record.eigenvalues[0],
        record.lambda_err_max_rel);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  return obs::run_tool("bench_matfree", flags, [&] { return run(flags); });
}
