#include "src/instrument/scavenger_pass.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/analysis/cfg.h"
#include "src/analysis/liveness.h"
#include "src/common/strings.h"
#include "src/instrument/rewriter.h"

namespace yieldhide::instrument {

namespace {

// Safety valve for the planning loop.
constexpr size_t kMaxPlanningIterations = 64;

// Profile-guided placement (before static bounding) only considers
// straight-line runs executed at least this often.
constexpr uint64_t kHotRunMinCount = 4;

// Static cost of one instruction under the "compute time" model: loads priced
// as L1 hits (a scavenger's own misses suspend it at primary yields).
uint32_t StaticCost(const isa::Instruction& insn, const sim::CostModel& cost,
                    uint32_t l1_latency) {
  switch (isa::ClassOf(insn.op)) {
    case isa::OpClass::kLoad:
      return l1_latency;
    case isa::OpClass::kStore:
      return cost.store_cycles;
    case isa::OpClass::kPrefetch:
      return cost.prefetch_cycles;
    case isa::OpClass::kBranch:
    case isa::OpClass::kJump:
      return cost.branch_cycles;
    case isa::OpClass::kCall:
    case isa::OpClass::kRet:
      return cost.call_ret_cycles;
    case isa::OpClass::kYield:
      return cost.cyield_untaken_cycles;
    case isa::OpClass::kHalt:
      return cost.halt_cycles;
    default:
      return insn.op == isa::Opcode::kMul || insn.op == isa::Opcode::kMuli
                 ? cost.mul_cycles
                 : cost.alu_cycles;
  }
}

// In scavenger mode both YIELD and CYIELD transfer control and reset the
// interval; so does HALT (the context ends).
bool ResetsInterval(const isa::Instruction& insn) {
  const isa::OpClass klass = isa::ClassOf(insn.op);
  return klass == isa::OpClass::kYield || klass == isa::OpClass::kHalt;
}

// Possible-return-address map for RET instructions (interprocedural edges).
std::map<isa::Addr, std::vector<isa::Addr>> ReturnPointsOf(const isa::Program& program) {
  std::map<isa::Addr, std::vector<isa::Addr>> returns_of_entry;
  for (isa::Addr addr = 0; addr < program.size(); ++addr) {
    if (isa::ClassOf(program.at(addr).op) == isa::OpClass::kCall &&
        addr + 1 < program.size()) {
      returns_of_entry[static_cast<isa::Addr>(program.at(addr).imm)].push_back(addr + 1);
    }
  }
  // Conservatively, every RET may return to any call's return point. Programs
  // here are small and functions rarely shared, so the precision loss only
  // over-inserts cheap conditional yields.
  std::vector<isa::Addr> all_points;
  for (const auto& [entry, points] : returns_of_entry) {
    all_points.insert(all_points.end(), points.begin(), points.end());
  }
  std::map<isa::Addr, std::vector<isa::Addr>> out;
  for (isa::Addr addr = 0; addr < program.size(); ++addr) {
    if (isa::ClassOf(program.at(addr).op) == isa::OpClass::kRet) {
      out[addr] = all_points;
    }
  }
  return out;
}

struct IntervalInputs {
  const isa::Program* program;
  const sim::CostModel* cost;
  uint32_t l1_latency;
  uint32_t cap;
  const std::set<isa::Addr>* planned;  // may be null
  std::map<isa::Addr, std::vector<isa::Addr>> ret_points;
};

// Forward worst-case accumulated-interval fixpoint. Returns W at entry of
// each instruction (before any planned insertion at that address resets it).
std::vector<uint32_t> RunIntervalAnalysis(const IntervalInputs& in) {
  const isa::Program& program = *in.program;
  const size_t n = program.size();
  std::vector<uint32_t> win(n, 0);

  auto sat = [cap = in.cap](uint64_t v) {
    return v >= cap ? cap : static_cast<uint32_t>(v);
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (isa::Addr addr = 0; addr < n; ++addr) {
      const isa::Instruction& insn = program.at(addr);
      const bool has_planned = in.planned != nullptr && in.planned->count(addr) != 0;
      const uint32_t eff_in = has_planned ? 0 : win[addr];
      const uint32_t wout =
          ResetsInterval(insn)
              ? 0
              : sat(static_cast<uint64_t>(eff_in) +
                    StaticCost(insn, *in.cost, in.l1_latency));

      auto propagate = [&](isa::Addr succ) {
        if (succ < n && wout > win[succ]) {
          win[succ] = wout;
          changed = true;
        }
      };
      switch (isa::ClassOf(insn.op)) {
        case isa::OpClass::kBranch:
          propagate(static_cast<isa::Addr>(insn.imm));
          propagate(addr + 1);
          break;
        case isa::OpClass::kJump:
          propagate(static_cast<isa::Addr>(insn.imm));
          break;
        case isa::OpClass::kCall:
          propagate(static_cast<isa::Addr>(insn.imm));
          break;
        case isa::OpClass::kRet: {
          auto it = in.ret_points.find(addr);
          if (it != in.ret_points.end()) {
            for (isa::Addr rp : it->second) {
              propagate(rp);
            }
          }
          break;
        }
        case isa::OpClass::kHalt:
          break;
        default:
          propagate(addr + 1);
          break;
      }
    }
  }
  return win;
}

uint32_t WorstInterval(const IntervalInputs& in, const std::vector<uint32_t>& win) {
  const isa::Program& program = *in.program;
  uint32_t worst = 0;
  for (isa::Addr addr = 0; addr < program.size(); ++addr) {
    const isa::Instruction& insn = program.at(addr);
    const bool has_planned = in.planned != nullptr && in.planned->count(addr) != 0;
    const uint32_t eff_in = has_planned ? 0 : win[addr];
    if (ResetsInterval(insn)) {
      // Interval ends here: the accumulated value IS a realized interval.
      worst = std::max(worst, eff_in);
    } else {
      const uint64_t through = eff_in + StaticCost(insn, *in.cost, in.l1_latency);
      worst = std::max<uint32_t>(worst, through >= in.cap ? in.cap
                                                          : static_cast<uint32_t>(through));
    }
  }
  return worst;
}

}  // namespace

std::string ScavengerReport::ToString() const {
  return StrFormat(
      "scavenger: cyields=%zu (profile=%zu static=%zu) worst_interval %u -> %u",
      cyields_inserted, profile_guided_insertions, static_insertions,
      worst_interval_before, worst_interval_after);
}

uint32_t WorstCaseInterval(const isa::Program& program,
                           const sim::CostModel& machine_cost, uint32_t cap) {
  IntervalInputs in;
  in.program = &program;
  in.cost = &machine_cost;
  in.l1_latency = 4;
  in.cap = cap;
  in.planned = nullptr;
  in.ret_points = ReturnPointsOf(program);
  return WorstInterval(in, RunIntervalAnalysis(in));
}

Result<ScavengerResult> RunScavengerPass(const InstrumentedProgram& input,
                                         const profile::BlockLatencyProfile* block_profile,
                                         const ScavengerConfig& config) {
  const isa::Program& program = input.program;
  YH_RETURN_IF_ERROR(program.Validate());
  YH_ASSIGN_OR_RETURN(const analysis::ControlFlowGraph cfg,
                      analysis::ControlFlowGraph::Build(program));
  const analysis::LivenessAnalysis liveness = analysis::LivenessAnalysis::Run(cfg);

  const uint32_t target = config.target_interval_cycles;
  const uint32_t cap = target * 4 == 0 ? 4 : target * 4;
  const uint32_t l1_latency = 4;

  IntervalInputs in;
  in.program = &program;
  in.cost = &config.machine_cost;
  in.l1_latency = l1_latency;
  in.cap = cap;
  in.ret_points = ReturnPointsOf(program);

  ScavengerResult result;
  ScavengerReport& report = result.report;
  {
    in.planned = nullptr;
    report.worst_interval_before = WorstInterval(in, RunIntervalAnalysis(in));
  }

  std::set<isa::Addr> planned;

  // --- phase 1: profile-guided placement on hot straight-line runs ---------
  if (block_profile != nullptr) {
    for (const analysis::BasicBlock& block : cfg.blocks()) {
      const uint64_t heat = block_profile->RunCount(block.start);
      if (heat < kHotRunMinCount) {
        continue;
      }
      auto measured = block_profile->MeanLatencyFrom(block.start);
      if (!measured.ok()) {
        continue;
      }
      // Static cost of the block, for scaling static per-instruction costs to
      // the measured latency of runs starting here.
      uint64_t static_total = 0;
      for (isa::Addr addr = block.start; addr < block.end; ++addr) {
        static_total += StaticCost(program.at(addr), config.machine_cost, l1_latency);
      }
      if (static_total == 0) {
        continue;
      }
      const double scale = std::max(1.0, measured.value() / static_cast<double>(static_total));
      double acc = 0;
      for (isa::Addr addr = block.start; addr < block.end; ++addr) {
        const isa::Instruction& insn = program.at(addr);
        if (ResetsInterval(insn)) {
          acc = 0;
          continue;
        }
        const double step = scale * StaticCost(insn, config.machine_cost, l1_latency);
        if (acc + step > target && acc > 0) {
          if (planned.insert(addr).second) {
            ++report.profile_guided_insertions;
          }
          acc = 0;
        }
        acc += step;
      }
    }
  }

  // --- phase 2: static worst-case bounding ---------------------------------
  for (size_t iteration = 0; iteration < kMaxPlanningIterations; ++iteration) {
    in.planned = &planned;
    const std::vector<uint32_t> win = RunIntervalAnalysis(in);
    size_t newly = 0;
    for (const analysis::BasicBlock& block : cfg.blocks()) {
      uint64_t acc = planned.count(block.start) ? 0 : win[block.start];
      for (isa::Addr addr = block.start; addr < block.end; ++addr) {
        const isa::Instruction& insn = program.at(addr);
        if (addr != block.start && planned.count(addr)) {
          acc = 0;
        }
        if (ResetsInterval(insn)) {
          acc = 0;
          continue;
        }
        const uint32_t step = StaticCost(insn, config.machine_cost, l1_latency);
        if (acc + step > target && acc > 0) {
          if (planned.insert(addr).second) {
            ++newly;
          }
          acc = 0;
        }
        acc += step;
      }
    }
    if (newly == 0) {
      break;
    }
    report.static_insertions += newly;
  }

  // --- rewrite --------------------------------------------------------------
  BinaryRewriter rewriter(program);
  std::vector<isa::Addr> planned_sorted(planned.begin(), planned.end());
  for (isa::Addr addr : planned_sorted) {
    rewriter.InsertBefore(addr, {isa::Instruction{isa::Opcode::kCyield}});
  }
  YH_ASSIGN_OR_RETURN(BinaryRewriter::Rewritten rewritten, rewriter.Apply());

  result.instrumented.program = std::move(rewritten.program);
  result.instrumented.addr_map =
      input.addr_map.old_size() > 0 ? input.addr_map.ComposeWith(rewritten.addr_map)
                                    : rewritten.addr_map;

  // Carry forward existing yield annotations, then add the new CYIELDs.
  for (const auto& [old_addr, info] : input.yields) {
    result.instrumented.yields[rewritten.addr_map.Translate(old_addr)] = info;
  }
  for (size_t i = 0; i < planned_sorted.size(); ++i) {
    const isa::Addr new_addr = rewritten.inserted_addresses[i];
    YieldInfo info;
    info.kind = YieldKind::kScavenger;
    info.save_mask = config.minimize_save_set ? liveness.LiveIn(planned_sorted[i])
                                              : analysis::kAllRegs;
    info.switch_cycles = config.cost_model.SwitchCycles(info.save_mask);
    result.instrumented.yields[new_addr] = info;
  }
  report.cyields_inserted = planned_sorted.size();

  // Post-pass verification of the bound on the rewritten binary.
  {
    IntervalInputs after;
    after.program = &result.instrumented.program;
    after.cost = &config.machine_cost;
    after.l1_latency = l1_latency;
    after.cap = cap;
    after.planned = nullptr;
    after.ret_points = ReturnPointsOf(result.instrumented.program);
    report.worst_interval_after = WorstInterval(after, RunIntervalAnalysis(after));
  }
  return result;
}

}  // namespace yieldhide::instrument
