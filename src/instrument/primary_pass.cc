#include "src/instrument/primary_pass.h"

#include <algorithm>

#include "src/analysis/cfg.h"
#include "src/analysis/dependence.h"
#include "src/common/strings.h"
#include "src/instrument/rewriter.h"

namespace yieldhide::instrument {

namespace {

// Pre-filter passed to LoadProfile::LikelyStallLoads: candidates below this
// share of the total estimated stall cycles are not worth a yield.
constexpr double kMinStallShare = 0.001;
// Confidence gate: candidates whose profile evidence scores below this (see
// SiteConfidence) are quarantined instead of instrumented. Corrupted profiles
// manufacture sites with internally inconsistent evidence (more misses than
// executions, misses without stalls); a yield placed on such a site is pure
// overhead.
constexpr double kMinConfidence = 0.25;

// Picks a register that is dead at `addr` (not live-in and not an address
// source of the pending loads), for use as a prefetch scratch register.
// Returns -1 if none is available.
int FindDeadRegister(analysis::RegMask live_in) {
  for (int reg = isa::kNumRegisters - 1; reg >= 0; --reg) {
    if ((live_in & (1u << reg)) == 0) {
      return reg;
    }
  }
  return -1;
}

}  // namespace

std::string PrimaryReport::ToString() const {
  return StrFormat(
      "primary: candidates=%zu instrumented=%zu yields=%zu prefetches=%zu "
      "coalesced_groups=%zu quarantined=%zu skid_rejected=%zu",
      candidate_loads.size(), instrumented_loads.size(), yields_inserted,
      prefetches_inserted, coalesced_groups, quarantined_loads.size(),
      skid_rejected);
}

double SiteConfidence(const profile::SiteProfile& site) {
  if (site.est_l2_misses <= 0 || site.est_executions <= 0) {
    return 0.0;
  }
  double confidence = 1.0;
  // A load cannot miss more often than it executes; an excess means the miss
  // evidence was attributed here from somewhere else.
  const double miss_ratio = site.est_l2_misses / site.est_executions;
  if (miss_ratio > 1.0) {
    confidence /= miss_ratio;
  }
  // Misses that caused no observed stalls are either prefetch-covered
  // already or mis-attributed; either way a yield buys nothing.
  if (site.est_stall_cycles <= 0) {
    confidence *= 0.5;
  }
  return confidence;
}

Result<PrimaryResult> RunPrimaryPass(const isa::Program& program,
                                     const profile::LoadProfile& profile,
                                     const PrimaryConfig& config) {
  YH_ASSIGN_OR_RETURN(const analysis::ControlFlowGraph cfg,
                      analysis::ControlFlowGraph::Build(program));
  const analysis::LivenessAnalysis liveness = analysis::LivenessAnalysis::Run(cfg);

  PrimaryResult result;
  PrimaryReport& report = result.report;

  // --- candidate selection -------------------------------------------------
  // Profile correlation (miss samples x stall samples), then drop sample IPs
  // that do not land on load instructions (PEBS skid can shift attribution).
  std::vector<isa::Addr> candidates =
      profile.LikelyStallLoads(config.min_miss_probability, kMinStallShare);
  const size_t correlated = candidates.size();
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](isa::Addr addr) {
                                    return addr >= program.size() ||
                                           isa::ClassOf(program.at(addr).op) !=
                                               isa::OpClass::kLoad;
                                  }),
                   candidates.end());
  report.skid_rejected = correlated - candidates.size();
  // Confidence gate: quarantine sites whose evidence is internally
  // inconsistent rather than handing them to the selection policy.
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](isa::Addr addr) {
                                    if (SiteConfidence(profile.ForIp(addr)) >=
                                        kMinConfidence) {
                                      return false;
                                    }
                                    report.quarantined_loads.push_back(addr);
                                    return true;
                                  }),
                   candidates.end());
  report.candidate_loads = candidates;

  std::vector<isa::Addr> selected;
  switch (config.policy) {
    case PrimaryPolicy::kMissThreshold:
      for (isa::Addr addr : candidates) {
        if (profile.ForIp(addr).L2MissProbability() >= config.miss_probability_threshold) {
          selected.push_back(addr);
        }
      }
      break;
    case PrimaryPolicy::kExpectedBenefit:
      for (isa::Addr addr : candidates) {
        const analysis::RegMask live = config.minimize_save_set
                                           ? liveness.LiveIn(addr)
                                           : analysis::kAllRegs;
        if (config.cost_model.NetBenefit(profile.ForIp(addr), live) > 0) {
          selected.push_back(addr);
        }
      }
      break;
    case PrimaryPolicy::kTopStallSites: {
      selected = candidates;  // already sorted by stall contribution
      if (selected.size() > config.top_k) {
        selected.resize(config.top_k);
      }
      break;
    }
  }
  std::sort(selected.begin(), selected.end());

  // --- grouping (yield coalescing) -----------------------------------------
  std::vector<analysis::LoadGroup> groups;
  if (config.coalesce) {
    groups = analysis::FindCoalescibleGroups(cfg, selected);
  } else {
    for (isa::Addr addr : selected) {
      groups.push_back(analysis::LoadGroup{{addr}});
    }
  }

  // --- emit instrumentation -------------------------------------------------
  BinaryRewriter rewriter(program);
  struct PendingYield {
    size_t yield_offset_in_call;  // index of the YIELD within its sequence
    size_t first_inserted_index;  // flat index of the sequence's first insn
    YieldInfo info;
  };
  std::vector<PendingYield> pending;
  size_t flat_inserted = 0;

  for (const analysis::LoadGroup& group : groups) {
    const isa::Addr site = group.loads.front();
    const analysis::RegMask live_in = liveness.LiveIn(site);

    std::vector<isa::Instruction> seq;
    bool viable = true;
    for (isa::Addr load_addr : group.loads) {
      const isa::Instruction& load = program.at(load_addr);
      if (load.op == isa::Opcode::kLoad) {
        seq.push_back({isa::Opcode::kPrefetch, 0, load.rs1, 0, load.imm});
      } else {
        // loadx: PREFETCH has no indexed form, so materialize the address in
        // a dead register. If no register is free, skip this site.
        const int scratch = FindDeadRegister(live_in);
        if (scratch < 0) {
          viable = false;
          break;
        }
        const isa::Reg sreg = static_cast<isa::Reg>(scratch);
        seq.push_back({isa::Opcode::kMuli, sreg, load.rs2, 0, load.imm});
        seq.push_back({isa::Opcode::kAdd, sreg, sreg, load.rs1, 0});
        seq.push_back({isa::Opcode::kPrefetch, 0, sreg, 0, 0});
      }
    }
    if (!viable || seq.empty()) {
      continue;
    }
    seq.push_back({isa::Opcode::kYield});

    PendingYield py;
    py.yield_offset_in_call = seq.size() - 1;
    py.first_inserted_index = flat_inserted;
    py.info.kind = YieldKind::kPrimary;
    py.info.save_mask = config.minimize_save_set ? live_in : analysis::kAllRegs;
    py.info.switch_cycles = config.cost_model.SwitchCycles(py.info.save_mask);
    py.info.coalesced_loads = static_cast<uint32_t>(group.loads.size());
    pending.push_back(py);

    flat_inserted += seq.size();
    report.prefetches_inserted += group.loads.size();
    ++report.yields_inserted;
    if (group.loads.size() > 1) {
      ++report.coalesced_groups;
    }
    report.instrumented_loads.insert(report.instrumented_loads.end(),
                                     group.loads.begin(), group.loads.end());
    rewriter.InsertBefore(site, std::move(seq));
  }

  YH_ASSIGN_OR_RETURN(BinaryRewriter::Rewritten rewritten, rewriter.Apply());
  result.instrumented.program = std::move(rewritten.program);
  result.instrumented.addr_map = std::move(rewritten.addr_map);

  for (const PendingYield& py : pending) {
    const isa::Addr yield_addr =
        rewritten.inserted_addresses[py.first_inserted_index + py.yield_offset_in_call];
    result.instrumented.yields[yield_addr] = py.info;
  }

  // Annotate pre-existing (developer-written) yields so the runtime has a
  // complete side-table; they save all registers at the default cost.
  for (isa::Addr old_addr = 0; old_addr < program.size(); ++old_addr) {
    if (isa::ClassOf(program.at(old_addr).op) != isa::OpClass::kYield) {
      continue;
    }
    const isa::Addr new_addr = result.instrumented.addr_map.Translate(old_addr);
    if (result.instrumented.yields.count(new_addr) == 0) {
      YieldInfo info;
      info.kind = YieldKind::kManual;
      info.save_mask = analysis::kAllRegs;
      info.switch_cycles = config.cost_model.SwitchCycles(analysis::kAllRegs);
      result.instrumented.yields[new_addr] = info;
    }
  }
  return result;
}

}  // namespace yieldhide::instrument
