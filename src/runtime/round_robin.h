// RoundRobinScheduler: symmetric coroutine interleaving — the execution model
// of prior coroutine-prefetch systems (CoroBase, "killer nanoseconds"): a
// group of peer coroutines, each yielding at (instrumented or manual)
// prefetch+yield sites, scheduled in a ring. All coroutines run with
// conditional yields off (primary mode); there is no latency-sensitive
// distinguished member. Used for throughput experiments (C3, C4, C6, C7).
#ifndef YIELDHIDE_SRC_RUNTIME_ROUND_ROBIN_H_
#define YIELDHIDE_SRC_RUNTIME_ROUND_ROBIN_H_

#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/instrument/types.h"
#include "src/obs/profiler/profiler.h"
#include "src/runtime/report.h"
#include "src/sim/executor.h"

namespace yieldhide::runtime {

class RoundRobinScheduler {
 public:
  // `binary` and `machine` must outlive the scheduler.
  RoundRobinScheduler(const instrument::InstrumentedProgram* binary,
                      sim::Machine* machine);

  // Adds a coroutine; `setup` seeds registers. `cyield_enabled` runs the
  // coroutine with conditional yields on (scavenger-instrumented code in a
  // symmetric ring). `entry` overrides the start address (kInvalidAddr =
  // the program entry) so one linked binary can host heterogeneous
  // coroutines.
  int AddCoroutine(const std::function<void(sim::CpuContext&)>& setup,
                   bool cyield_enabled = false,
                   isa::Addr entry = isa::kInvalidAddr);

  // Attaches a cycle-attribution profiler (may be null; must outlive the
  // run). The symmetric ring feeds the primary-side hooks only — there are
  // no bursts, so no hidden/scavenger classes appear — and charges the
  // modeled accounting cost at the end of the run (the ring has no
  // mid-run safe points). The taxonomy still sums to total_cycles exactly.
  void SetProfiler(obs::CycleProfiler* profiler);

  // Runs until every coroutine halts. Yields rotate through live coroutines;
  // a yield with no other live coroutine falls through at a nominal
  // self-resume cost instead of a full switch.
  Result<RunReport> Run(uint64_t max_total_instructions);

  const sim::CpuContext& context(int id) const { return contexts_[id]; }

 private:
  const instrument::InstrumentedProgram* binary_;
  sim::Machine* machine_;
  sim::Executor executor_;
  std::vector<sim::CpuContext> contexts_;
  std::vector<uint64_t> start_cycle_;
  obs::CycleProfiler* profiler_ = nullptr;
};

}  // namespace yieldhide::runtime

#endif  // YIELDHIDE_SRC_RUNTIME_ROUND_ROBIN_H_
