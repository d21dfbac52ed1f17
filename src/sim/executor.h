// Executor: architectural state and single-step semantics for one software
// context executing a Program on a Machine.
//
// The executor is deliberately a *step* machine rather than a run loop: the
// coroutine runtime (src/runtime) interleaves many contexts on one Machine by
// stepping whichever context is scheduled, and the SMT core (smt_core.h)
// multiplexes contexts at instruction granularity. Both use the same
// semantics; they differ only in what they do with memory-wait cycles, which
// is why Step() separates issue cost from memory wait.
#ifndef YIELDHIDE_SRC_SIM_EXECUTOR_H_
#define YIELDHIDE_SRC_SIM_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/isa/program.h"
#include "src/sim/machine.h"

namespace yieldhide::sim {

// Architectural + accounting state of one context.
struct CpuContext {
  int id = 0;
  std::array<uint64_t, isa::kNumRegisters> regs{};
  isa::Addr pc = 0;
  std::vector<isa::Addr> call_stack;
  // When true, CYIELD suspends; when false it falls through. The runtime sets
  // this according to the coroutine's mode (scavenger=true, primary=false).
  bool cyield_enabled = false;
  bool halted = false;

  // Accounting.
  uint64_t instructions = 0;
  uint64_t issue_cycles = 0;    // cycles spent issuing instructions
  uint64_t stall_cycles = 0;    // cycles exposed waiting on memory
  uint64_t switch_cycles = 0;   // cycles charged for taken yields (by runtime)
  uint64_t yields_taken = 0;
  uint64_t cyields_taken = 0;
  uint64_t cyields_skipped = 0;
  uint64_t loads = 0;
  uint64_t load_misses = 0;     // loads not satisfied by L1 (incl. in-flight)

  uint64_t TotalCycles() const { return issue_cycles + stall_cycles + switch_cycles; }

  void ResetArchState(isa::Addr entry) {
    regs.fill(0);
    pc = entry;
    call_stack.clear();
    halted = false;
  }
};

// What happened during one Step().
enum class StepEvent : uint8_t {
  kExecuted,  // ordinary instruction retired; context continues
  kYielded,   // YIELD (or enabled CYIELD) retired; scheduler should switch
  kHalted,    // HALT retired or context was already halted
  kError,     // malformed execution (bad pc, call-stack underflow, ...)
};

// Plain data, so a step returns in registers; the Status of a kError step is
// kept by the executor (Executor::error()).
struct StepResult {
  StepEvent event = StepEvent::kExecuted;
  uint32_t issue_cycles = 0;  // pipeline-occupancy cost of the instruction
  uint32_t wait_cycles = 0;   // additional memory wait (stall if not hidden)
  bool conditional_yield = false;  // event==kYielded via CYIELD
};

// How Step() should account memory waits.
enum class StallPolicy : uint8_t {
  // In-order blocking core: the global clock advances by issue+wait and the
  // wait is recorded as context stall time. Used by the coroutine runtime.
  kBlocking,
  // The clock advances by issue only; the caller parks the context until
  // now+wait (SMT: other hardware threads run during the wait).
  kDeferred,
};

class Executor {
 public:
  // `program` and `machine` must outlive the executor.
  Executor(const isa::Program* program, Machine* machine);

  // Executes exactly one instruction of `ctx`, advancing the machine clock
  // per `policy` and publishing events to the machine's listeners.
  //
  // YIELD instructions do NOT charge the switch cost; they only report
  // kYielded. The scheduler charges the machine's yield_switch_cycles when it
  // actually transfers control (a yield back to the same sole runnable
  // context can be made cheaper by the runtime).
  //
  // A kError step leaves `ctx` unchanged and records why in error().
  StepResult Step(CpuContext& ctx, StallPolicy policy);

  // Why the most recent kError step failed; OK before any error.
  const Status& error() const { return error_; }

  // Runs a single context to completion (blocking stalls, yields ignored —
  // they fall through at zero extra cost, modelling a yield with nobody to
  // switch to). Returns total cycles consumed. Used for baselines.
  Result<uint64_t> RunToCompletion(CpuContext& ctx, uint64_t max_instructions);

  const isa::Program& program() const { return *program_; }
  Machine& machine() { return *machine_; }

 private:
  StepResult Error(Status status);

  const isa::Program* program_;
  Machine* machine_;
  Status error_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_EXECUTOR_H_
