// RunPrimary: how both schedulers advance a context that runs with
// conditional yields off.
#ifndef YIELDHIDE_SRC_RUNTIME_PRIMARY_RUN_H_
#define YIELDHIDE_SRC_RUNTIME_PRIMARY_RUN_H_

#include <cstdint>

#include "src/obs/profiler/profiler.h"
#include "src/sim/executor.h"

namespace yieldhide::runtime {

// Runs `ctx` to its next yield, halt or error, or for `max_steps` steps. With
// a profiler attached it takes one step instead and reports it to the
// profiler, which attributes every step to the IP that took it.
inline sim::RunResult RunPrimary(sim::Executor& executor, sim::CpuContext& ctx,
                                 uint64_t max_steps,
                                 obs::CycleProfiler* profiler) {
  if (profiler == nullptr) {
    return executor.Run(ctx, sim::StallPolicy::kBlocking, max_steps);
  }
  sim::RunResult run;
  run.ip = ctx.pc;
  const sim::StepResult step = executor.Step(ctx, sim::StallPolicy::kBlocking);
  run.event = step.event;
  if (step.event != sim::StepEvent::kError) {
    run.conditional_yield = step.conditional_yield;
    run.steps = 1;
    run.issue_cycles = step.issue_cycles;
    run.wait_cycles = step.wait_cycles;
    profiler->OnPrimaryStep(run.ip, step.issue_cycles, step.wait_cycles);
  }
  return run;
}

}  // namespace yieldhide::runtime

#endif  // YIELDHIDE_SRC_RUNTIME_PRIMARY_RUN_H_
