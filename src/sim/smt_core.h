// Simultaneous-multithreading core model: 2-8 hardware contexts fine-grained
// multiplexed over one set of core resources (one instruction issues per
// cycle slot) sharing the cache hierarchy.
//
// This is the hardware baseline the paper argues against: memory waits of one
// context are hidden by issuing from the others, but (i) the degree of
// concurrency is capped at the hardware context count, and (ii) the hardware
// multiplexes with no notion of which context is latency-sensitive, so a
// high-priority instruction stream is slowed by its neighbours.
//
// Yield instructions are ignored (fall through at zero cost): SMT runs the
// *uninstrumented* binary.
#ifndef YIELDHIDE_SRC_SIM_SMT_CORE_H_
#define YIELDHIDE_SRC_SIM_SMT_CORE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/sim/executor.h"

namespace yieldhide::sim {

struct SmtReport {
  uint64_t total_cycles = 0;      // wall-clock cycles until the last context halted
  uint64_t issued_cycles = 0;     // cycle slots spent issuing instructions
  uint64_t total_instructions = 0;
  std::vector<uint64_t> context_finish_cycles;  // completion time per context

  // Fraction of core cycle slots doing useful work.
  double Utilization() const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(issued_cycles) / static_cast<double>(total_cycles);
  }
};

class SmtCore {
 public:
  // All contexts run `program`; `machine` provides the shared hierarchy and
  // clock. Both must outlive the core.
  SmtCore(const isa::Program* program, Machine* machine);

  // Adds a hardware context; `setup` initializes its registers (input data
  // pointers etc.). Returns the context id.
  int AddContext(const std::function<void(CpuContext&)>& setup);

  CpuContext& context(int id) { return contexts_[id]; }

  // Round-robin fine-grained multithreading until every context halts.
  Result<SmtReport> Run(uint64_t max_total_instructions);

 private:
  Executor executor_;
  std::vector<CpuContext> contexts_;
  std::vector<uint64_t> ready_at_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_SMT_CORE_H_
