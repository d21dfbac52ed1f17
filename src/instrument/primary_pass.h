// Primary instrumentation pass (paper §3.2): from a profile of the original
// binary, choose the load instructions that likely cause L2/L3-miss stalls
// and rewrite the binary so each chosen site prefetches its line(s) and
// yields, letting the runtime overlap the miss with other coroutines.
//
// Pipeline per the paper:
//   1. disassemble + CFG          (analysis::ControlFlowGraph)
//   2. candidate selection        (profile correlation + policy + cost model)
//   3. yield coalescing           (analysis::FindCoalescibleGroups)
//   4. register-liveness-minimized save sets
//   5. binary rewriting           (BinaryRewriter)
#ifndef YIELDHIDE_SRC_INSTRUMENT_PRIMARY_PASS_H_
#define YIELDHIDE_SRC_INSTRUMENT_PRIMARY_PASS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/instrument/cost_model.h"
#include "src/instrument/types.h"
#include "src/profile/profile.h"

namespace yieldhide::instrument {

enum class PrimaryPolicy : uint8_t {
  // Instrument every load whose profiled L2-miss probability exceeds
  // `miss_probability_threshold` (the paper's example "simple policy").
  kMissThreshold,
  // Instrument loads whose modeled net benefit (gain - cost) is positive.
  kExpectedBenefit,
  // Instrument the top K loads by estimated stall contribution.
  kTopStallSites,
};

struct PrimaryConfig {
  PrimaryPolicy policy = PrimaryPolicy::kExpectedBenefit;
  double miss_probability_threshold = 0.5;  // kMissThreshold
  size_t top_k = 8;                         // kTopStallSites
  // Pre-filter passed to LoadProfile::LikelyStallLoads.
  double min_miss_probability = 0.05;
  // Enable the yield-coalescing optimization.
  bool coalesce = true;
  // Enable liveness-minimized save sets; when false, yields save all
  // registers (ablation C6).
  bool minimize_save_set = true;
  YieldCostModel cost_model;
};

struct PrimaryReport {
  std::vector<isa::Addr> candidate_loads;     // after profile correlation
  std::vector<isa::Addr> instrumented_loads;  // original addresses chosen
  // Candidates rejected by the confidence gate — profile evidence too
  // inconsistent to justify a yield.
  std::vector<isa::Addr> quarantined_loads;
  // LikelyStallLoads IPs discarded because they do not name a load
  // instruction in this binary (PEBS skid / aliasing / stale profile).
  size_t skid_rejected = 0;
  size_t yields_inserted = 0;
  size_t prefetches_inserted = 0;
  size_t coalesced_groups = 0;  // groups with >1 load
  std::string ToString() const;
};

struct PrimaryResult {
  InstrumentedProgram instrumented;
  PrimaryReport report;
};

// How internally consistent a site's profile evidence is, in [0, 1].
// 1 = executions, misses, and stalls corroborate each other; 0 = no
// execution or miss evidence at all. Penalized when the estimated miss count
// exceeds the estimated execution count (impossible physically — a skid or
// aliasing artifact) and when miss evidence lacks any stall corroboration.
double SiteConfidence(const profile::SiteProfile& site);

// Runs the pass. `program` must be the binary the profile was collected on.
Result<PrimaryResult> RunPrimaryPass(const isa::Program& program,
                                     const profile::LoadProfile& profile,
                                     const PrimaryConfig& config);

}  // namespace yieldhide::instrument

#endif  // YIELDHIDE_SRC_INSTRUMENT_PRIMARY_PASS_H_
