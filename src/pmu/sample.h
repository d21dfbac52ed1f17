// Sample record types produced by the simulated PMU.
#ifndef YIELDHIDE_SRC_PMU_SAMPLE_H_
#define YIELDHIDE_SRC_PMU_SAMPLE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/isa/isa.h"
#include "src/sim/hierarchy.h"

namespace yieldhide::pmu {

// Hardware events the PMU can count and sample. Modeled on the PEBS event
// families the paper proposes combining (§3.2): precise load events at each
// cache level plus an execution-stall counter.
enum class HwEvent : uint8_t {
  kLoadsL1Miss,   // MEM_LOAD_RETIRED.L1_MISS: loads served by L2 or beyond
  kLoadsL2Miss,   // MEM_LOAD_RETIRED.L2_MISS: loads served by L3 or DRAM
  kLoadsL3Miss,   // MEM_LOAD_RETIRED.L3_MISS: loads served by DRAM
  kStallCycles,   // CYCLE_ACTIVITY.STALLS_MEM_ANY: memory-wait cycles
  kRetiredInstructions,  // INST_RETIRED.ANY
};

// One PEBS-style precise sample. For load events `ip` is the (possibly
// skidded) address of the sampled load and `vaddr`/`level` describe the
// access; for kStallCycles, `ip` is the instruction the stall was charged to.
struct PebsSample {
  HwEvent event = HwEvent::kRetiredInstructions;
  int ctx_id = 0;
  isa::Addr ip = 0;
  uint64_t vaddr = 0;
  sim::HitLevel level = sim::HitLevel::kL1;
  uint64_t cycle = 0;
};

// One Last-Branch-Record entry: a taken control transfer and the number of
// cycles since the previous recorded transfer (Intel's LBR_INFO.CYC_CNT).
struct LbrEntry {
  isa::Addr from = 0;
  isa::Addr to = 0;
  uint32_t cycles = 0;
};

// A snapshot of the LBR ring taken at a sample point, oldest entry first.
struct LbrSnapshot {
  std::vector<LbrEntry> entries;
};

}  // namespace yieldhide::pmu

#endif  // YIELDHIDE_SRC_PMU_SAMPLE_H_
