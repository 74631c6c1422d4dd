// Table 1 of the paper: percentage mismatch in worst-delay mean (e_mu) and
// standard deviation (e_sigma) between the Monte Carlo STA (Algorithm 1,
// dense Cholesky) and the covariance-kernel STA (Algorithm 2, r = 25 KLE),
// plus the speedup, across the ISCAS85/89 benchmark set.
//
// Scaling note (see EXPERIMENTS.md): the paper used 100K samples on a
// 2.8 GHz dual-core Opteron; this bench defaults to fewer samples and the
// first 9 circuits so a single-core run finishes in minutes. Use
// --all --samples=<N> to widen. The *shape* — tiny e_mu, few-percent
// e_sigma, speedup growing with N_g — is the reproduction target.
//
// With --store=DIR solved KLEs are served from an artifact-store repository:
// the first bench run is cold (solves + persists, KLEsrc column "solved"),
// every later run loads from disk/memory and the KLEsetup column collapses
// to the file-load time — warm-vs-cold timing in one flag.
//
// Flags: --samples=400 --r=25 --seed=1 --threads=K --max-gates=6000 --all
//        --circuits=c880,c1355 --store=/path/to/repo
#include <cstdio>
#include <sstream>

#include "circuit/synthetic.h"
#include "common/cli.h"
#include "obs/export.h"
#include "common/table.h"
#include "ssta/experiment.h"

namespace {

int run(const sckl::CliFlags& flags) {
  using namespace sckl;
  // The shared experiment flag vocabulary (--samples, --r, --seed,
  // --threads, --store, ...) plus this bench's own sweep controls.
  ssta::ExperimentConfig base;
  base.num_samples = 400;
  base.r = 25;
  base.seed = 1;
  ssta::add_experiment_flags(flags, base);
  const bool all = flags.get_bool("all", false);
  const auto max_gates = static_cast<std::size_t>(
      flags.get_int("max-gates", all ? 25000 : 6000));
  const std::string only = flags.get_string("circuits", "");

  std::printf("# Table 1: MC STA (Algorithm 1) vs covariance-kernel STA "
              "(Algorithm 2), %zu samples each, r = %zu\n",
              base.num_samples, base.r);
  TextTable table;
  table.set_header({"Circuit", "Ng", "e_mu(%)", "e_sigma(%)", "Speedup",
                    "MCsetup(s)", "KLEsetup(s)", "MCrun(s)", "KLErun(s)",
                    "KLEsrc"});

  std::size_t threads_used = 0;
  for (const auto& info : circuit::paper_circuit_table()) {
    if (info.num_gates > max_gates) continue;
    if (!only.empty() && only.find(info.name) == std::string::npos) continue;

    ssta::ExperimentConfig config = base;
    config.circuit = info.name;
    const ssta::ExperimentResult result = ssta::run_experiment(config);
    threads_used = result.threads_used;
    table.add_row({result.circuit, std::to_string(result.num_gates),
                   format_double(result.e_mu_percent, 3),
                   format_double(result.e_sigma_percent, 3),
                   format_double(result.speedup, 2),
                   format_double(result.mc_setup_seconds, 2),
                   format_double(result.kle_setup_seconds, 2),
                   format_double(result.mc_run_seconds, 2),
                   format_double(result.kle_run_seconds, 2),
                   result.kle_source.empty() ? "fresh" : result.kle_source});
    // Stream rows as they complete (long-running bench).
    std::printf("%s", table.to_string().c_str());
    std::printf("...\n");
  }
  std::printf("\n# final:\n%s", table.to_string().c_str());
  if (threads_used > 0)
    std::printf("# Monte Carlo worker threads: %zu\n", threads_used);
  std::printf("# paper (100K samples): e_mu <= 0.109%%, e_sigma <= 5.7%%, "
              "speedup 0.29 -> 10.65 growing with Ng\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const sckl::CliFlags flags(argc, argv);
  return sckl::obs::run_tool("bench_table1_ssta", flags,
                             [&] { return run(flags); });
}
