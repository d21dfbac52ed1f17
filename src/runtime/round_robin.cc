#include "src/runtime/round_robin.h"

#include "src/common/strings.h"
#include "src/runtime/annotate.h"

namespace yieldhide::runtime {

RoundRobinScheduler::RoundRobinScheduler(const instrument::InstrumentedProgram* binary,
                                         sim::Machine* machine)
    : binary_(binary), machine_(machine), executor_(&binary->program, machine) {}

int RoundRobinScheduler::AddCoroutine(const std::function<void(sim::CpuContext&)>& setup,
                                      bool cyield_enabled, isa::Addr entry) {
  sim::CpuContext ctx;
  ctx.id = static_cast<int>(contexts_.size());
  ctx.ResetArchState(entry == isa::kInvalidAddr ? binary_->program.entry() : entry);
  ctx.cyield_enabled = cyield_enabled;
  if (setup) {
    setup(ctx);
  }
  contexts_.push_back(std::move(ctx));
  start_cycle_.push_back(machine_->now());
  return contexts_.back().id;
}

void RoundRobinScheduler::SetProfiler(obs::CycleProfiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) {
    profiler_->OnBinary(binary_);
  }
}

Result<RunReport> RoundRobinScheduler::Run(uint64_t max_total_instructions) {
  if (contexts_.empty()) {
    return FailedPreconditionError("no coroutines added");
  }
  RunReport report;
  const uint64_t start = machine_->now();
  for (size_t i = 0; i < contexts_.size(); ++i) {
    start_cycle_[i] = start;
  }
  if (profiler_ != nullptr) {
    profiler_->OnRunBegin(start);
  }

  size_t live = contexts_.size();
  size_t current = 0;
  auto next_live = [&](size_t from) -> int {
    for (size_t i = 1; i <= contexts_.size(); ++i) {
      const size_t idx = (from + i) % contexts_.size();
      if (!contexts_[idx].halted) {
        return static_cast<int>(idx);
      }
    }
    return -1;
  };
  if (contexts_[current].halted) {
    const int n = next_live(current);
    if (n < 0) {
      return FailedPreconditionError("all coroutines already halted");
    }
    current = static_cast<size_t>(n);
  }

  while (live > 0) {
    if (report.instructions >= max_total_instructions) {
      return ResourceExhaustedError(
          StrFormat("round-robin run exceeded %llu instructions",
                    static_cast<unsigned long long>(max_total_instructions)));
    }
    sim::CpuContext& ctx = contexts_[current];
    const sim::RunResult run =
        executor_.Run(ctx, sim::StallPolicy::kBlocking,
                      max_total_instructions - report.instructions, profiler_);
    report.instructions += run.steps;
    const isa::Addr ip = run.ip;

    switch (run.event) {
      case sim::StepEvent::kError:
        return executor_.error();
      case sim::StepEvent::kExecuted:
        break;  // the instruction budget ran out
      case sim::StepEvent::kYielded: {
        const int next = next_live(current);
        if (next >= 0 && static_cast<size_t>(next) != current) {
          const uint32_t cost = SwitchCostAt(*binary_, ip, machine_->config().cost);
          if (profiler_ != nullptr) {
            // Symmetric ring: every switch "works" by construction, so the
            // visit counts as useful; no burst follows (no scavengers here).
            profiler_->OnPrimarySwitch(ip, cost, /*useful=*/true);
          }
          machine_->AdvanceClock(cost);
          ctx.switch_cycles += cost;
          report.switch_cycles += cost;
          ++report.yields;
          current = static_cast<size_t>(next);
        } else {
          machine_->AdvanceClock(kSelfResumeCycles);
          ctx.switch_cycles += kSelfResumeCycles;
          report.switch_cycles += kSelfResumeCycles;
          if (profiler_ != nullptr) {
            profiler_->OnSelfResume(kSelfResumeCycles);
          }
        }
        break;
      }
      case sim::StepEvent::kHalted: {
        --live;
        report.completions.push_back(
            CompletionRecord{ctx.id, start_cycle_[current], machine_->now()});
        const int next = next_live(current);
        if (next >= 0) {
          // Termination is a context switch too, but a halting coroutine has
          // no state to save; charge the restore half only.
          const uint32_t cost = machine_->config().cost.yield_switch_cycles / 2;
          if (profiler_ != nullptr) {
            profiler_->OnSwitch(ip, cost);
          }
          machine_->AdvanceClock(cost);
          report.switch_cycles += cost;
          current = static_cast<size_t>(next);
        }
        break;
      }
    }
  }

  if (profiler_ != nullptr) {
    // Only safe point a symmetric ring has: charge the modeled accounting
    // cost, then sweep it (and nothing else) into sched_overhead so the
    // taxonomy partitions total_cycles exactly.
    const uint64_t cost = profiler_->TakeUnchargedOverheadCycles();
    if (cost > 0) {
      machine_->AdvanceClock(cost);
    }
    profiler_->SyncToClock(machine_->now());
  }
  report.total_cycles = machine_->now() - start;
  for (const sim::CpuContext& ctx : contexts_) {
    report.issue_cycles += ctx.issue_cycles;
    report.stall_cycles += ctx.stall_cycles;
  }
  return report;
}

}  // namespace yieldhide::runtime
