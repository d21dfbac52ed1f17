#include "src/faultinject/drift.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/instrument/rewriter.h"

namespace yieldhide::faultinject {
namespace {

// A small pool of filler instructions a recompile might emit (spills,
// scheduling artifacts). All are architectural no-ops.
isa::Instruction FillerInstruction(Rng& rng) {
  const isa::Reg r = static_cast<isa::Reg>(rng.NextBelow(isa::kNumRegisters));
  switch (rng.NextBelow(3)) {
    case 0:
      return {isa::Opcode::kNop, 0, 0, 0, 0};
    case 1:
      return {isa::Opcode::kMov, r, r, 0, 0};
    default:
      return {isa::Opcode::kAddi, r, r, 0, 0};
  }
}

Status InsertFiller(isa::Program& program, Rng& rng, size_t count,
                    DriftReport& report) {
  if (count == 0 || program.empty()) {
    return Status::Ok();
  }
  instrument::BinaryRewriter rewriter(program);
  for (size_t i = 0; i < count; ++i) {
    const isa::Addr at = static_cast<isa::Addr>(rng.NextBelow(program.size()));
    rewriter.InsertBefore(at, {FillerInstruction(rng)});
    ++report.insertions;
  }
  YH_ASSIGN_OR_RETURN(auto rewritten, rewriter.Apply());
  program = std::move(rewritten.program);
  return Status::Ok();
}

// Outlines block [start, end): copies its body to the end of the image,
// replaces the first original instruction with a jump to the copy, and
// nop-fills the rest. Absolute branch targets inside the copy stay valid;
// the copy jumps back to `end` when the block could fall through. Safe
// because block leaders are the only inbound targets (CFG construction) and
// a CALL inside the copy pushes its in-copy return point.
void OutlineBlock(isa::Program& program, const analysis::BasicBlock& block) {
  const isa::Addr copy_start = static_cast<isa::Addr>(program.size());
  for (isa::Addr a = block.start; a < block.end; ++a) {
    program.Append(program.at(a));
  }
  const isa::Instruction last = program.at(block.end - 1);
  if (isa::CanFallThrough(last)) {
    program.Append({isa::Opcode::kJmp, 0, 0, 0,
                    static_cast<int64_t>(block.end)});
  }
  program.at(block.start) = {isa::Opcode::kJmp, 0, 0, 0,
                             static_cast<int64_t>(copy_start)};
  for (isa::Addr a = block.start + 1; a < block.end; ++a) {
    program.at(a) = {isa::Opcode::kNop, 0, 0, 0, 0};
  }
}

Status ReorderBlocks(isa::Program& program, Rng& rng, size_t count,
                     DriftReport& report) {
  if (count == 0 || program.empty()) {
    return Status::Ok();
  }
  YH_ASSIGN_OR_RETURN(const analysis::ControlFlowGraph cfg,
                      analysis::ControlFlowGraph::Build(program));
  // Mid-block symbols (data labels, debug marks) would dangle onto the
  // nop-filled husk; leave such blocks in place.
  std::set<isa::Addr> symbol_addrs;
  for (const auto& [name, addr] : program.symbols()) {
    symbol_addrs.insert(addr);
  }
  std::vector<const analysis::BasicBlock*> candidates;
  for (const analysis::BasicBlock& block : cfg.blocks()) {
    bool mid_block_symbol = false;
    for (isa::Addr a = block.start + 1; a < block.end; ++a) {
      if (symbol_addrs.count(a) != 0) {
        mid_block_symbol = true;
        break;
      }
    }
    if (!mid_block_symbol) {
      candidates.push_back(&block);
    }
  }
  // Fisher-Yates prefix shuffle: pick `count` distinct victims.
  for (size_t i = 0; i < candidates.size() && report.blocks_moved < count; ++i) {
    const size_t j = i + rng.NextBelow(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
    OutlineBlock(program, *candidates[i]);
    ++report.blocks_moved;
  }
  return Status::Ok();
}

}  // namespace

std::string DriftReport::ToString() const {
  return StrFormat("drift: insertions=%zu blocks_moved=%zu size %zu -> %zu",
                   insertions, blocks_moved, old_size, new_size);
}

Result<DriftResult> DriftProgram(const isa::Program& program,
                                 const DriftConfig& config) {
  YH_RETURN_IF_ERROR(program.Validate());
  DriftResult result;
  result.program = program;
  result.program.set_name(program.name() + "+drift");
  result.report.old_size = program.size();

  const double sev = std::clamp(config.severity, 0.0, 1.0);
  if (sev > 0) {
    Rng rng(config.seed);
    const size_t inserts = std::max<size_t>(
        1, static_cast<size_t>(sev * static_cast<double>(program.size()) * 0.10));
    YH_RETURN_IF_ERROR(InsertFiller(result.program, rng, inserts, result.report));
    YH_ASSIGN_OR_RETURN(const analysis::ControlFlowGraph cfg,
                        analysis::ControlFlowGraph::Build(result.program));
    const size_t moves = std::max<size_t>(
        1, static_cast<size_t>(sev * static_cast<double>(cfg.block_count()) * 0.25));
    YH_RETURN_IF_ERROR(ReorderBlocks(result.program, rng, moves, result.report));
  }

  result.report.new_size = result.program.size();
  YH_RETURN_IF_ERROR(result.program.Validate());
  return result;
}

}  // namespace yieldhide::faultinject
