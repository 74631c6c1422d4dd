// One-sample static timing walk — a test-only oracle for StaEngine.
//
// This is the engine's former per-sample loop: one pass over the netlist in
// topological order per sample, each arc looking its cell's NLDM tables up
// at (input slew, load) and gathering the gate's four parameters for the
// rank-one quadratic factors. It reads the engine only through its public
// accessors (levelization, cells, loads, wire delays, physical indices), so
// the tests can hold run_block's gate-major chunks against it bit for bit.
#pragma once

#include "timing/sta.h"

namespace sckl::timing {

/// STA of one sample. When `trace` is non-null it receives the per-gate
/// arrivals, slews and worst arcs.
StaResult reference_sta(const StaEngine& engine,
                        const ParameterView& parameters,
                        StaTrace* trace = nullptr);

}  // namespace sckl::timing
