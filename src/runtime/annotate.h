// Yield metadata for the schedulers: what a yield costs, and a helper for
// running binaries that skipped the instrumentation pipeline (baselines,
// hand-instrumented CoroBase-style programs), which wraps a Program into an
// InstrumentedProgram whose side-table covers the yields already in the
// binary, so every scheduler input carries yield metadata.
#ifndef YIELDHIDE_SRC_RUNTIME_ANNOTATE_H_
#define YIELDHIDE_SRC_RUNTIME_ANNOTATE_H_

#include "src/instrument/types.h"
#include "src/sim/config.h"

namespace yieldhide::runtime {

// Cost of a yield that finds nobody else runnable and falls through.
inline constexpr uint32_t kSelfResumeCycles = 2;

// Cost of a taken yield at `yield_ip`: the switch cycles `binary`'s side table
// annotates on it, else the machine's yield_switch_cycles.
uint32_t SwitchCostAt(const instrument::InstrumentedProgram& binary,
                      isa::Addr yield_ip, const sim::CostModel& cost);

// Marks every YIELD/CYIELD in `program` as a manual yield that saves all
// registers at the machine's default switch cost.
instrument::InstrumentedProgram AnnotateManualYields(const isa::Program& program,
                                                     const sim::CostModel& cost);

}  // namespace yieldhide::runtime

#endif  // YIELDHIDE_SRC_RUNTIME_ANNOTATE_H_
