// Last Branch Record model: a ring of the most recent taken control transfers
// with per-entry cycle counts, snapshotted periodically.
//
// The scavenger-instrumentation phase (§3.3) uses LBR-derived data the same
// way trace-scheduling compilers do: consecutive entries bound a straight-line
// run of instructions (to[i] .. from[i+1]) whose execution took cycles[i+1],
// which yields measured basic-block latencies and hot paths.
#ifndef YIELDHIDE_SRC_PMU_LBR_H_
#define YIELDHIDE_SRC_PMU_LBR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/pmu/sample.h"
#include "src/sim/events.h"

namespace yieldhide::pmu {

// Ring depth; Intel: 32 since Skylake.
inline constexpr size_t kLbrRingEntries = 32;

struct LbrConfig {
  uint64_t snapshot_period = 509;  // snapshot the ring every Nth taken branch
  size_t max_snapshots = 1 << 16;
};

class LbrRecorder : public sim::EventListener {
 public:
  explicit LbrRecorder(const LbrConfig& config)
      : sim::EventListener(sim::MaskOf({sim::Event::kBranch})), config_(config) {}

  void OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                uint64_t cycle) override;

  // Moves accumulated snapshots out.
  std::vector<LbrSnapshot> DrainSnapshots();

  uint64_t branches_seen() const { return branches_seen_; }
  const LbrConfig& config() const { return config_; }

 private:
  LbrConfig config_;
  std::deque<LbrEntry> ring_;
  uint64_t last_branch_cycle_ = 0;
  uint64_t branches_seen_ = 0;
  std::vector<LbrSnapshot> snapshots_;
};

}  // namespace yieldhide::pmu

#endif  // YIELDHIDE_SRC_PMU_LBR_H_
