// Executor: architectural state and instruction semantics for one software
// context executing a Program on a Machine.
//
// Run() is the one way to execute a context: it runs the context up to the
// next step its caller must act on (a taken YIELD or CYIELD, a HALT, an
// error) or until a step budget runs out. The coroutine runtime (src/runtime)
// interleaves many contexts on one Machine by running whichever context is
// scheduled to its next yield; the SMT core (smt_core.h) multiplexes contexts
// at instruction granularity with a budget of one step. The two differ only
// in what they do with memory-wait cycles, which is why a run separates
// issue cost from memory wait. A caller that must see every step (a cycle
// profiler attributes each one to its IP) passes a StepObserver.
//
// A run keeps what its steps read besides memory in host registers: the code,
// the cost model, the machine's hierarchy, memory and event bus, the pc, the
// clock, the remaining budget and the cycle sums are locals, loaded once and
// stored back once, and the context's registers are reached through a pointer
// that aliases nothing else, so writing one forces no reload. Each
// (observer, StallPolicy) pair has its own loop, so no step tests either.
//
// Straight-line ALU runs (kNop through kMov up to the next other opcode)
// retire in one step. An executor records, for each pc of its program, the
// length of the ALU run that starts there and the run's summed issue cycles.
// A run without an observer that reaches such a pc executes the whole ALU run
// and does its bookkeeping once, when both the remaining budget and the event
// bus's retirements before its next sample point cover it; an ALU instruction
// raises no event but its retirement, so no listener can tell. Every other
// step, and every step of an observed run, goes through the one-step switch.
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

  uint64_t TotalCycles() const { return issue_cycles + stall_cycles + switch_cycles; }

  void ResetArchState(isa::Addr entry) {
    regs.fill(0);
    pc = entry;
    call_stack.clear();
    halted = false;
  }
};

// How a step ended.
enum class StepEvent : uint8_t {
  kExecuted,  // ordinary instruction retired; context continues
  kYielded,   // YIELD (or enabled CYIELD) retired; scheduler should switch
  kHalted,    // HALT retired or context was already halted
  kError,     // malformed execution (bad pc, call-stack underflow, ...)
};

// What one Run() ended on. Plain data; the Status of a kError run is kept by
// the executor (Executor::error()).
struct RunResult {
  // The ending step's event: kYielded or kHalted, kError with the reason in
  // Executor::error(), or kExecuted when the step budget ran out.
  StepEvent event = StepEvent::kExecuted;
  bool conditional_yield = false;  // event==kYielded via CYIELD
  isa::Addr ip = 0;                // the ending step's IP
  uint64_t steps = 0;              // instructions retired by the run
  uint64_t issue_cycles = 0;       // pipeline-occupancy cost, summed over them
  uint64_t wait_cycles = 0;        // memory wait (stall if not hidden), summed
};

// How Run() should account memory waits.
enum class StallPolicy : uint8_t {
  // In-order blocking core: the global clock advances by issue+wait and the
  // wait is recorded as context stall time. Used by the coroutine runtime.
  kBlocking,
  // The clock advances by issue only; the caller parks the context until
  // now+wait (SMT: other hardware threads run during the wait).
  kDeferred,
};

// Told of every step a Run() retires, the ending YIELD or HALT included, after
// the step's events are published. A failing step retires nothing and is not
// reported.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void OnStep(isa::Addr ip, uint32_t issue_cycles, uint32_t wait_cycles) = 0;
};

class Executor {
 public:
  // `program` and `machine` must outlive the executor, and neither the
  // program nor the machine's cost model may change while it exists: the
  // executor records the program's ALU runs when it is built.
  Executor(const isa::Program* program, Machine* machine);

  // Executes `ctx` step after step until a step that yields, halts or fails,
  // or until `max_steps` steps have retired, advancing the machine clock per
  // `policy` and publishing each step's events to the machine's listeners. A
  // halted context runs no step and reports kHalted. A failing step leaves
  // `ctx` at the failing instruction, after the steps before it, and records
  // why in error(). `observer`, when given, is told of every retired step.
  //
  // YIELD instructions do NOT charge the switch cost; they only end the run
  // with kYielded. The scheduler charges the machine's yield_switch_cycles
  // when it actually transfers control (a yield back to the same sole
  // runnable context can be made cheaper by the runtime).
  RunResult Run(CpuContext& ctx, StallPolicy policy, uint64_t max_steps,
                StepObserver* observer = nullptr) {
    if (observer == nullptr) {
      return policy == StallPolicy::kBlocking
                 ? RunLoop<false, StallPolicy::kBlocking>(ctx, max_steps, nullptr)
                 : RunLoop<false, StallPolicy::kDeferred>(ctx, max_steps, nullptr);
    }
    return policy == StallPolicy::kBlocking
               ? RunLoop<true, StallPolicy::kBlocking>(ctx, max_steps, observer)
               : RunLoop<true, StallPolicy::kDeferred>(ctx, max_steps, observer);
  }

  // Why the most recent kError step failed; OK before any error.
  const Status& error() const { return error_; }

  // Runs a single context to completion (blocking stalls, yields ignored —
  // they fall through at zero extra cost, modelling a yield with nobody to
  // switch to). Returns total cycles consumed. Used for baselines.
  Result<uint64_t> RunToCompletion(CpuContext& ctx, uint64_t max_instructions);

  const isa::Program& program() const { return *program_; }
  Machine& machine() { return *machine_; }

 private:
  // The straight-line ALU run that starts at one pc: how many instructions
  // (0 when the one there is not an ALU instruction) and their summed issue
  // cycles.
  struct AluRun {
    uint32_t length = 0;
    uint32_t issue_cycles = 0;
  };

  // Run()'s loop, one instantiation per observer presence and policy, all
  // four in executor.cc.
  template <bool kObserved, StallPolicy kPolicy>
  RunResult RunLoop(CpuContext& ctx, uint64_t max_steps, StepObserver* observer);

  const isa::Program* program_;
  Machine* machine_;
  // One entry per pc, and a zero one past the end.
  std::vector<AluRun> alu_runs_;
  Status error_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_EXECUTOR_H_
