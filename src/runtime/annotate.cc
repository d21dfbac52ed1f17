#include "src/runtime/annotate.h"

#include "src/analysis/liveness.h"

namespace yieldhide::runtime {

uint32_t SwitchCostAt(const instrument::InstrumentedProgram& binary,
                      isa::Addr yield_ip, const sim::CostModel& cost) {
  auto it = binary.yields.find(yield_ip);
  if (it != binary.yields.end() && it->second.switch_cycles > 0) {
    return it->second.switch_cycles;
  }
  return cost.yield_switch_cycles;
}

instrument::InstrumentedProgram AnnotateManualYields(const isa::Program& program,
                                                     const sim::CostModel& cost) {
  instrument::InstrumentedProgram out;
  out.program = program;
  std::vector<isa::Addr> identity(program.size());
  for (isa::Addr addr = 0; addr < program.size(); ++addr) {
    identity[addr] = addr;
  }
  out.addr_map = instrument::AddrMap(std::move(identity));
  for (isa::Addr addr = 0; addr < program.size(); ++addr) {
    if (isa::ClassOf(program.at(addr).op) == isa::OpClass::kYield) {
      instrument::YieldInfo info;
      info.kind = instrument::YieldKind::kManual;
      info.save_mask = analysis::kAllRegs;
      info.switch_cycles = cost.yield_switch_cycles;
      out.yields[addr] = info;
    }
  }
  return out;
}

}  // namespace yieldhide::runtime
