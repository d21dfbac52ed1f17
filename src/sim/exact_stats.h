// Ground-truth per-instruction statistics, collected exactly (not sampled).
// The profiling pipeline never reads these; they exist so experiments can
// quantify how close sample-based profiles get to the truth (bench C10, the
// only program that attaches them).
#ifndef YIELDHIDE_SRC_SIM_EXACT_STATS_H_
#define YIELDHIDE_SRC_SIM_EXACT_STATS_H_

#include <cstdint>
#include <vector>

#include "src/sim/events.h"

namespace yieldhide::sim {

class ExactStats : public EventListener {
 public:
  struct PerIp {
    uint64_t executions = 0;
    uint64_t loads = 0;
    uint64_t hits_l1 = 0;
    uint64_t hits_l2 = 0;
    uint64_t hits_l3 = 0;
    uint64_t hits_dram = 0;
    uint64_t inflight_merges = 0;
    uint64_t stall_cycles = 0;

    // Fraction of loads that left the L2 (L3 + DRAM) — the paper's target set.
    double L2MissRatio() const {
      return loads == 0 ? 0.0
                        : static_cast<double>(hits_l3 + hits_dram) /
                              static_cast<double>(loads);
    }
  };

  ExactStats()
      : EventListener(MaskOf({Event::kRetired, Event::kLoad, Event::kStall})) {}

  void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) override;
  void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override;
  void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) override;

  const PerIp& ForIp(isa::Addr ip) const;

  uint64_t total_instructions() const { return total_instructions_; }
  uint64_t total_stall_cycles() const { return total_stall_cycles_; }
  uint64_t total_loads() const { return total_loads_; }

 private:
  PerIp& Slot(isa::Addr ip);

  std::vector<PerIp> per_ip_;
  uint64_t total_instructions_ = 0;
  uint64_t total_stall_cycles_ = 0;
  uint64_t total_loads_ = 0;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_EXACT_STATS_H_
