#include "src/sim/smt_core.h"

#include <limits>

#include "src/common/strings.h"

namespace yieldhide::sim {

SmtCore::SmtCore(const isa::Program* program, Machine* machine)
    : executor_(program, machine) {}

int SmtCore::AddContext(const std::function<void(CpuContext&)>& setup) {
  CpuContext ctx;
  ctx.id = static_cast<int>(contexts_.size());
  ctx.ResetArchState(executor_.program().entry());
  if (setup) {
    setup(ctx);
  }
  contexts_.push_back(std::move(ctx));
  ready_at_.push_back(0);
  return contexts_.back().id;
}

Result<SmtReport> SmtCore::Run(uint64_t max_total_instructions) {
  if (contexts_.empty()) {
    return FailedPreconditionError("SMT core has no contexts");
  }
  Machine& machine = executor_.machine();
  SmtReport report;
  report.context_finish_cycles.assign(contexts_.size(), 0);

  size_t rr_cursor = 0;
  size_t live = contexts_.size();
  while (live > 0) {
    if (report.total_instructions >= max_total_instructions) {
      return ResourceExhaustedError(
          StrFormat("SMT run exceeded %llu instructions",
                    static_cast<unsigned long long>(max_total_instructions)));
    }
    // Pick the next runnable context round-robin.
    const uint64_t now = machine.now();
    int chosen = -1;
    for (size_t i = 0; i < contexts_.size(); ++i) {
      const size_t idx = (rr_cursor + i) % contexts_.size();
      if (!contexts_[idx].halted && ready_at_[idx] <= now) {
        chosen = static_cast<int>(idx);
        break;
      }
    }
    if (chosen < 0) {
      // Every live context is waiting on memory: the core idles until the
      // first fill completes. These are the stall slots SMT failed to hide.
      uint64_t next_ready = std::numeric_limits<uint64_t>::max();
      for (size_t i = 0; i < contexts_.size(); ++i) {
        if (!contexts_[i].halted && ready_at_[i] < next_ready) {
          next_ready = ready_at_[i];
        }
      }
      report.idle_cycles += next_ready - now;
      machine.AdvanceClockTo(next_ready);
      continue;
    }

    rr_cursor = (static_cast<size_t>(chosen) + 1) % contexts_.size();
    CpuContext& ctx = contexts_[chosen];
    const StepResult step = executor_.Step(ctx, StallPolicy::kDeferred);
    switch (step.event) {
      case StepEvent::kError:
        return executor_.error();
      case StepEvent::kHalted:
        --live;
        report.context_finish_cycles[chosen] = machine.now();
        break;
      case StepEvent::kYielded:
        // SMT runs the uninstrumented stream; software yields are meaningless
        // to the hardware and fall through.
        break;
      case StepEvent::kExecuted:
        break;
    }
    ++report.total_instructions;
    report.issued_cycles += step.issue_cycles;
    if (step.wait_cycles > 0) {
      ready_at_[chosen] = machine.now() + step.wait_cycles;
      // The exposed wait is charged to the context as (potentially hidden)
      // stall time for per-thread latency accounting.
      ctx.stall_cycles += step.wait_cycles;
    }
  }
  report.total_cycles = machine.now();
  return report;
}

}  // namespace yieldhide::sim
