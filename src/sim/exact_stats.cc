#include "src/sim/exact_stats.h"

#include <algorithm>

#include "src/common/strings.h"

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

std::vector<isa::Addr> ExactStats::HottestIps(size_t limit) const {
  std::vector<isa::Addr> ips;
  for (isa::Addr ip = 0; ip < per_ip_.size(); ++ip) {
    if (per_ip_[ip].stall_cycles > 0) {
      ips.push_back(ip);
    }
  }
  std::sort(ips.begin(), ips.end(), [this](isa::Addr a, isa::Addr b) {
    if (per_ip_[a].stall_cycles != per_ip_[b].stall_cycles) {
      return per_ip_[a].stall_cycles > per_ip_[b].stall_cycles;
    }
    return a < b;
  });
  if (ips.size() > limit) {
    ips.resize(limit);
  }
  return ips;
}

std::string ExactStats::Summary(size_t top_n) const {
  std::string out = StrFormat("instructions=%s loads=%s stall_cycles=%s\n",
                              WithCommas(total_instructions_).c_str(),
                              WithCommas(total_loads_).c_str(),
                              WithCommas(total_stall_cycles_).c_str());
  for (isa::Addr ip : HottestIps(top_n)) {
    const PerIp& s = per_ip_[ip];
    out += StrFormat(
        "  ip=%u execs=%llu loads=%llu l1=%llu l2=%llu l3=%llu dram=%llu "
        "stall=%llu (%.1f/load)\n",
        ip, static_cast<unsigned long long>(s.executions),
        static_cast<unsigned long long>(s.loads),
        static_cast<unsigned long long>(s.hits_l1),
        static_cast<unsigned long long>(s.hits_l2),
        static_cast<unsigned long long>(s.hits_l3),
        static_cast<unsigned long long>(s.hits_dram),
        static_cast<unsigned long long>(s.stall_cycles), s.MeanStallCycles());
  }
  return out;
}

}  // namespace yieldhide::sim
