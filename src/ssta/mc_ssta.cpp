#include "ssta/mc_ssta.h"

#include <algorithm>

#include "obs/stopwatch.h"
#include "robust/fault_injection.h"

namespace sckl::ssta {

namespace detail {

void BlockPartial::merge(const BlockPartial& other) {
  worst_delay.merge(other.worst_delay);
  worst_delay_sketch.merge(other.worst_delay_sketch);
  if (endpoint.size() < other.endpoint.size())
    endpoint.resize(other.endpoint.size());
  for (std::size_t e = 0; e < other.endpoint.size(); ++e)
    endpoint[e].merge(other.endpoint[e]);
  sampling_seconds += other.sampling_seconds;
  sta_seconds += other.sta_seconds;
}

void BlockPartial::encode(std::vector<std::uint8_t>& out) const {
  worst_delay.encode(out);
  worst_delay_sketch.encode(out);
  wire::put_u64(out, endpoint.size());
  for (const RunningStats& stats : endpoint) stats.encode(out);
  wire::put_f64(out, sampling_seconds);
  wire::put_f64(out, sta_seconds);
}

BlockPartial BlockPartial::decode(wire::ByteReader& r) {
  BlockPartial partial;
  partial.worst_delay = RunningStats::decode(r);
  partial.worst_delay_sketch = QuantileSketch::decode(r);
  const std::uint64_t num_endpoints = r.u64();
  r.need_count(num_endpoints, 5 * 8, "BlockPartial endpoint stats");
  partial.endpoint.reserve(static_cast<std::size_t>(num_endpoints));
  for (std::uint64_t e = 0; e < num_endpoints; ++e)
    partial.endpoint.push_back(RunningStats::decode(r));
  partial.sampling_seconds = r.f64();
  partial.sta_seconds = r.f64();
  return partial;
}

void compute_block_partial(const timing::StaEngine& engine,
                           const ParameterSamplers& samplers,
                           const McSstaOptions& options,
                           std::size_t block_index,
                           std::size_t num_endpoints, BlockScratch& scratch,
                           BlockPartial& partial,
                           std::vector<double>* samples_out) {
  const std::uint64_t first =
      static_cast<std::uint64_t>(block_index) * options.block_size;
  const std::size_t n =
      std::min<std::size_t>(options.block_size, options.num_samples - first);
  partial.worst_delay_sketch = QuantileSketch(options.sketch_capacity);
  partial.endpoint.resize(num_endpoints);

  obs::ThreadCpuStopwatch sampling;
  const field::SampleRange range{first, n};
  for (std::size_t j = 0; j < timing::kNumStatParameters; ++j) {
    // Staged sampling: one latent fill plus one GEMM per parameter, with
    // the latent scratch shared across parameters (each parameter's draws
    // come from its own StreamKey, so reuse is just allocation reuse).
    samplers[j]->latent_block(range, StreamKey{options.seed, j},
                              scratch.latents);
    samplers[j]->reconstruct(scratch.latents, scratch.blocks[j]);
  }
  partial.sampling_seconds = sampling.seconds();

  obs::ThreadCpuStopwatch sta;
  // The four blocks are sample-major with one row stride (N_g).
  const timing::ParameterView view{
      scratch.blocks[0].data(), scratch.blocks[1].data(),
      scratch.blocks[2].data(), scratch.blocks[3].data()};
  engine.run_block(view, scratch.blocks[0].cols(), n, scratch.timing);
  const std::vector<double>& worst = scratch.timing.worst_delay;
  for (std::size_t i = 0; i < n; ++i) {
    partial.worst_delay.add(worst[i]);
    partial.worst_delay_sketch.add(worst[i]);
  }
  if (samples_out != nullptr)
    std::copy(worst.begin(), worst.end(), samples_out->begin() + first);
  for (std::size_t e = 0; e < num_endpoints; ++e) {
    const double* arrival = scratch.timing.endpoint_arrival.data() + e * n;
    for (std::size_t i = 0; i < n; ++i) partial.endpoint[e].add(arrival[i]);
  }
  partial.sta_seconds = sta.seconds();
}

std::optional<BlockPartial> compute_lease_partial(
    const timing::StaEngine& engine, const ParameterSamplers& samplers,
    const McSstaOptions& options, std::size_t first_block,
    std::size_t num_blocks, std::size_t num_endpoints, BlockScratch& scratch,
    std::vector<double>* samples_out,
    const std::function<bool()>& before_block) {
  BlockPartial lease_partial;
  lease_partial.worst_delay_sketch = QuantileSketch(options.sketch_capacity);
  lease_partial.endpoint.resize(num_endpoints);
  BlockPartial block_partial;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    robust::crash_point(robust::FaultSite::kMcWorkerCrash);
    if (before_block && !before_block()) return std::nullopt;
    block_partial = BlockPartial{};
    compute_block_partial(engine, samplers, options, first_block + b,
                          num_endpoints, scratch, block_partial, samples_out);
    lease_partial.merge(block_partial);
  }
  return lease_partial;
}

}  // namespace detail

}  // namespace sckl::ssta
