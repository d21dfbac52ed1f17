#include "src/sim/exact_stats.h"

namespace yieldhide::sim {

ExactStats::PerIp& ExactStats::Slot(isa::Addr ip) {
  if (ip >= per_ip_.size()) {
    per_ip_.resize(ip + 1);
  }
  return per_ip_[ip];
}

const ExactStats::PerIp& ExactStats::ForIp(isa::Addr ip) const {
  static const PerIp kEmpty;
  return ip < per_ip_.size() ? per_ip_[ip] : kEmpty;
}

void ExactStats::OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) {
  ++Slot(ip).executions;
  ++total_instructions_;
}

void ExactStats::OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
                        bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) {
  PerIp& slot = Slot(ip);
  ++slot.loads;
  ++total_loads_;
  switch (level) {
    case HitLevel::kL1:
      ++slot.hits_l1;
      break;
    case HitLevel::kL2:
      ++slot.hits_l2;
      break;
    case HitLevel::kL3:
      ++slot.hits_l3;
      break;
    case HitLevel::kDram:
      ++slot.hits_dram;
      break;
  }
  if (hit_inflight) {
    ++slot.inflight_merges;
  }
}

void ExactStats::OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) {
  Slot(ip).stall_cycles += cycles;
  total_stall_cycles_ += cycles;
}

}  // namespace yieldhide::sim
