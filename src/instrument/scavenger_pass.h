// Scavenger instrumentation pass (paper §3.3): after primary instrumentation,
// place *conditional* yields (CYIELD) so that, when a coroutine runs in
// scavenger mode, adjacent yields are at most a target interval apart — the
// property that lets a scavenger return the CPU to a latency-sensitive
// primary coroutine promptly.
//
// Placement follows the paper's two-step recipe:
//   1. profile-guided: measured LBR run latencies place yields on the common
//      paths first (trace-scheduling style), and
//   2. static bounding: a forward worst-case interval analysis plants
//      additional conditional yields until no path accumulates more than the
//      target between consecutive yields.
//
// Primary yields also reset the interval: in scavenger mode a coroutine
// suspending at a primary yield relinquishes the CPU just the same.
#ifndef YIELDHIDE_SRC_INSTRUMENT_SCAVENGER_PASS_H_
#define YIELDHIDE_SRC_INSTRUMENT_SCAVENGER_PASS_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/instrument/cost_model.h"
#include "src/instrument/types.h"
#include "src/profile/profile.h"
#include "src/sim/config.h"

namespace yieldhide::instrument {

struct ScavengerConfig {
  // Target inter-yield interval in cycles. 300 cycles ~ 100 ns at 3 GHz, the
  // paper's example value: "bounded but sufficient to hide L2/L3 cache
  // misses (e.g., 100 ns)".
  uint32_t target_interval_cycles = 300;
  // Per-instruction static costs (loads priced as L1 hits: scavenger-mode
  // misses suspend at primary yields anyway).
  sim::CostModel machine_cost;
  bool minimize_save_set = true;
  YieldCostModel cost_model;
};

struct ScavengerReport {
  size_t cyields_inserted = 0;
  size_t profile_guided_insertions = 0;
  size_t static_insertions = 0;
  // Worst-case inter-yield interval (scavenger mode) before/after the pass,
  // saturated at 4x the target.
  uint32_t worst_interval_before = 0;
  uint32_t worst_interval_after = 0;
  std::string ToString() const;
};

struct ScavengerResult {
  InstrumentedProgram instrumented;
  ScavengerReport report;
};

// Runs the pass on a (typically primary-instrumented) binary. `input.yields`
// is carried forward through the rewrite. `block_profile` must be expressed
// in the addresses of `input.program` (translate via AddrMap if it was
// collected on an earlier binary); pass nullptr to skip profile-guided
// placement.
Result<ScavengerResult> RunScavengerPass(const InstrumentedProgram& input,
                                         const profile::BlockLatencyProfile* block_profile,
                                         const ScavengerConfig& config);

// Scalar worst-case inter-yield interval over the whole program (scavenger
// mode), saturated at `cap`.
uint32_t WorstCaseInterval(const isa::Program& program,
                           const sim::CostModel& machine_cost, uint32_t cap);

}  // namespace yieldhide::instrument

#endif  // YIELDHIDE_SRC_INSTRUMENT_SCAVENGER_PASS_H_
