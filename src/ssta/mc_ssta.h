// Monte Carlo statistical static timing analysis harness (Sec. 5.1).
//
// Runs N STA evaluations, drawing per-gate values of the four statistical
// parameters from one FieldSampler per parameter (the P_j matrices of
// Algorithms 1/2 are mutually independent, so parameter j reads the
// counter-based stream StreamKey{seed, j} — see common/rng.h for the
// derivation scheme). Samples are generated in blocks to bound memory, and
// the harness separately times sample generation and STA so Table 1's
// speedup decomposition can be reported.
//
// There is one runner. Samples are cut into blocks and blocks into leases;
// worker threads claim leases off the lease table (LeaseCoordinator in
// ssta/lease_ledger.h), fold each lease's blocks with
// detail::compute_lease_partial, and publish the lease partial. The result
// folds the lease partials in lease order. run_monte_carlo_ssta is that
// runner with one block per lease and no ledger; the checkpointed runner in
// ssta/mc_run.h is the same runner with a durable ledger, so a killed run
// can resume. Because every sample is index-addressed (the samplers are
// stateless) and the fold order is fixed, the result — including every
// retained worst-delay sample, the accumulated mean/sigma, and the
// worst-delay quantile sketch — is bit-identical for any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/statistics.h"
#include "common/wire.h"
#include "field/field_sampler.h"
#include "linalg/matrix.h"
#include "timing/sta.h"

namespace sckl::ssta {

/// Options for one Monte Carlo SSTA run.
struct McSstaOptions {
  std::size_t num_samples = 2000;
  std::size_t block_size = 256;  // samples per generated block
  std::uint64_t seed = 12345;
  bool keep_samples = false;  // retain per-sample worst delays (yield curves)
  /// Per-level buffer size of the worst-delay quantile sketch. Exact while
  /// num_samples <= sketch_capacity; see common/statistics.h for the rank
  /// error beyond that. Must match across runs that resume each other.
  std::size_t sketch_capacity = QuantileSketch::kDefaultCapacity;
  /// Worker threads claiming leases: 0 = auto (the SCKL_THREADS environment
  /// variable when set, else hardware concurrency), 1 = serial on the
  /// calling thread, k = exactly k workers. Statistics are bit-identical
  /// for every value.
  std::size_t num_threads = 0;
  /// Lease time-to-live for remote workers (mc_run.h, DESIGN.md §12): a
  /// remote claim not completed or heartbeat-extended within this budget
  /// is treated as abandoned and reclaimed for deterministic recomputation.
  /// Claims held by this process's own threads never time out. Must be
  /// positive; heartbeat intervals are validated against it (< TTL/3).
  std::uint64_t lease_ttl_ms = 300'000;
  /// Cooperative cancellation, polled before every lease claim (a lease is
  /// the unit of preemption — at most one lease per worker runs after this
  /// first returns true). When the run is cancelled the harness finishes
  /// joining its workers, then throws sckl::Error(kDeadlineExceeded). The serve
  /// daemon passes a deadline check here so a slow RunSsta request stops
  /// consuming pool threads soon after its deadline expires. Must be
  /// thread-safe; empty = never cancelled.
  std::function<bool()> cancelled;
};

/// Statistics collected over one run.
struct McSstaResult {
  RunningStats worst_delay;                // circuit delay across samples
  QuantileSketch worst_delay_sketch;       // full-distribution summary
  std::vector<RunningStats> endpoint;      // per-endpoint delay statistics
  std::vector<double> worst_delay_samples; // only with keep_samples
  double sampling_seconds = 0.0;           // parameter-sample generation,
  double sta_seconds = 0.0;                //   summed across workers (CPU s)
  double total_seconds = 0.0;              // end-to-end wall time
  std::size_t threads_used = 0;            // resolved worker count
};

/// One sampler per statistical parameter (L, W, Vt, tox), in that order.
/// The same sampler object may back several parameters; streams stay
/// independent because parameter j draws from StreamKey{seed, j}.
using ParameterSamplers =
    std::array<const field::FieldSampler*, timing::kNumStatParameters>;

namespace detail {

/// Statistics of one sample block (or one merged lease of blocks). Kept per
/// lease so the final fold runs in lease order — the floating-point
/// accumulation is then independent of the thread count. The checkpointed
/// runner serializes lease partials into its ledger, which is why the
/// struct carries wire codecs.
struct BlockPartial {
  RunningStats worst_delay;
  QuantileSketch worst_delay_sketch{QuantileSketch::kDefaultCapacity};
  std::vector<RunningStats> endpoint;
  double sampling_seconds = 0.0;
  double sta_seconds = 0.0;

  /// Folds `other` into this partial. The fold is the one merge step used
  /// everywhere (lease accumulation, the final fold), so a fixed fold order
  /// ⇒ bit-identical accumulator state.
  void merge(const BlockPartial& other);

  /// Bit-exact wire codecs (timings travel as IEEE-754 bit patterns too,
  /// though only the statistics take part in the resume invariant).
  void encode(std::vector<std::uint8_t>& out) const;
  static BlockPartial decode(wire::ByteReader& r);
};

/// Per-worker scratch: one sample matrix per statistical parameter plus the
/// shared latent matrix for the staged sampler interface, reused across the
/// blocks a worker claims so allocations happen once.
struct BlockScratch {
  std::array<linalg::Matrix, timing::kNumStatParameters> blocks;
  linalg::Matrix latents;
};

/// Computes block `block_index`'s partial statistics: draws the block's
/// sample range for all four parameters and runs STA per sample. This is a
/// pure function of (engine, samplers, options, block_index) apart from the
/// recorded timings, which is what makes recomputing a lost block after a
/// crash reproduce the original partial bit for bit. `samples_out`, when
/// non-null, receives per-sample worst delays at their global sample index
/// (the keep_samples path); it must already be sized to num_samples.
void compute_block_partial(const timing::StaEngine& engine,
                           const ParameterSamplers& samplers,
                           const McSstaOptions& options,
                           std::size_t block_index,
                           std::size_t num_endpoints, BlockScratch& scratch,
                           BlockPartial& partial,
                           std::vector<double>* samples_out);

/// Computes one lease's partial: the fold, in block order, of the partials
/// of blocks [first_block, first_block + num_blocks) (resume invariant #1 in
/// mc_run.h). `before_block`, when set, runs before each block; a false
/// return abandons the lease and the function returns nullopt. This is the
/// only place blocks fold into a lease — local claimers and the serve
/// worker both call it, so a remote partial carries the bits a local
/// claimer would. `samples_out` is forwarded to compute_block_partial.
std::optional<BlockPartial> compute_lease_partial(
    const timing::StaEngine& engine, const ParameterSamplers& samplers,
    const McSstaOptions& options, std::size_t first_block,
    std::size_t num_blocks, std::size_t num_endpoints, BlockScratch& scratch,
    std::vector<double>* samples_out,
    const std::function<bool()>& before_block = {});

/// Number of blocks a run partitions into.
inline std::size_t num_blocks_for(const McSstaOptions& options) {
  return (options.num_samples + options.block_size - 1) / options.block_size;
}

}  // namespace detail

/// Runs Monte Carlo SSTA: the lease runner with one block per lease and no
/// ledger. All samplers must cover exactly the engine's physical gate count
/// and be safe for concurrent const use (every sampler in this codebase is:
/// sample_block is a pure function of its arguments). Throws
/// kDeadlineExceeded when options.cancelled fires. Defined in mc_run.cpp.
McSstaResult run_monte_carlo_ssta(const timing::StaEngine& engine,
                                  const ParameterSamplers& samplers,
                                  const McSstaOptions& options = {});

}  // namespace sckl::ssta
