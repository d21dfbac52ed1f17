// Run reports produced by the coroutine schedulers.
#ifndef YIELDHIDE_SRC_RUNTIME_REPORT_H_
#define YIELDHIDE_SRC_RUNTIME_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace yieldhide::runtime {

struct CompletionRecord {
  int coroutine_id = 0;
  uint64_t start_cycle = 0;
  uint64_t end_cycle = 0;

  uint64_t LatencyCycles() const { return end_cycle - start_cycle; }
};

struct RunReport {
  uint64_t total_cycles = 0;
  uint64_t instructions = 0;
  uint64_t issue_cycles = 0;   // cycles issuing useful instructions
  uint64_t stall_cycles = 0;   // cycles stalled on memory (not hidden)
  uint64_t switch_cycles = 0;  // cycles spent in coroutine switches
  uint64_t yields = 0;         // control transfers between coroutines
  std::vector<CompletionRecord> completions;

  // Fraction of core time doing useful work (the paper's CPU efficiency).
  double CpuEfficiency() const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(issue_cycles) / static_cast<double>(total_cycles);
  }
  double StallFraction() const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(stall_cycles) / static_cast<double>(total_cycles);
  }
  double SwitchFraction() const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(switch_cycles) / static_cast<double>(total_cycles);
  }
  double Ipc() const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(instructions) / static_cast<double>(total_cycles);
  }

  std::string Summary() const;
};

}  // namespace yieldhide::runtime

#endif  // YIELDHIDE_SRC_RUNTIME_REPORT_H_
