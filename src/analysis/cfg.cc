#include "src/analysis/cfg.h"

#include <algorithm>
#include <set>

#include "src/common/strings.h"

namespace yieldhide::analysis {

Result<ControlFlowGraph> ControlFlowGraph::Build(const isa::Program& program) {
  YH_RETURN_IF_ERROR(program.Validate());
  const size_t n = program.size();

  // Pass 1: find leaders — address 0, branch/jump/call targets, and every
  // instruction following a control transfer (including CALL fall-throughs).
  std::set<isa::Addr> leaders;
  leaders.insert(0);
  leaders.insert(program.entry());
  for (isa::Addr addr = 0; addr < n; ++addr) {
    const isa::Instruction& insn = program.at(addr);
    if (isa::HasCodeTarget(insn)) {
      leaders.insert(static_cast<isa::Addr>(insn.imm));
    }
    if (isa::IsControlFlow(insn) && addr + 1 < n) {
      leaders.insert(addr + 1);
    }
  }

  ControlFlowGraph cfg;
  cfg.program_ = &program;
  cfg.block_of_.assign(n, kNoBlock);

  // Pass 2: materialize blocks between consecutive leaders.
  std::vector<isa::Addr> sorted_leaders(leaders.begin(), leaders.end());
  for (size_t i = 0; i < sorted_leaders.size(); ++i) {
    BasicBlock block;
    block.id = static_cast<BlockId>(cfg.blocks_.size());
    block.start = sorted_leaders[i];
    block.end = i + 1 < sorted_leaders.size() ? sorted_leaders[i + 1]
                                              : static_cast<isa::Addr>(n);
    for (isa::Addr addr = block.start; addr < block.end; ++addr) {
      cfg.block_of_[addr] = block.id;
    }
    cfg.blocks_.push_back(std::move(block));
  }

  // Pass 3: wire edges from each block's terminator.
  auto link = [&](BlockId from, BlockId to) {
    cfg.blocks_[from].successors.push_back(to);
    cfg.blocks_[to].predecessors.push_back(from);
  };
  for (BasicBlock& block : cfg.blocks_) {
    const isa::Instruction& terminator = program.at(block.last());
    const isa::OpClass klass = isa::ClassOf(terminator.op);
    switch (klass) {
      case isa::OpClass::kBranch:
        link(block.id, cfg.block_of_[static_cast<isa::Addr>(terminator.imm)]);
        if (block.end < n) {
          link(block.id, cfg.block_of_[block.end]);
        }
        break;
      case isa::OpClass::kJump:
        link(block.id, cfg.block_of_[static_cast<isa::Addr>(terminator.imm)]);
        break;
      case isa::OpClass::kCall:
        block.call_target = static_cast<isa::Addr>(terminator.imm);
        if (block.end < n) {
          link(block.id, cfg.block_of_[block.end]);  // return point
        }
        break;
      case isa::OpClass::kRet:
      case isa::OpClass::kHalt:
        break;  // no intra-procedural successors
      default:
        // Block ends because the next instruction is a leader: fall through.
        if (block.end < n) {
          link(block.id, cfg.block_of_[block.end]);
        }
        break;
    }
  }

  // Deduplicate edge lists (a branch whose target equals its fall-through
  // would otherwise produce parallel edges).
  for (BasicBlock& block : cfg.blocks_) {
    auto dedupe = [](std::vector<BlockId>& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    dedupe(block.successors);
    dedupe(block.predecessors);
  }
  return cfg;
}

std::vector<BlockId> ControlFlowGraph::ReversePostOrder() const {
  std::vector<uint8_t> visited(blocks_.size(), 0);
  std::vector<BlockId> postorder;
  postorder.reserve(blocks_.size());

  // Iterative DFS from the program entry's block.
  struct Frame {
    BlockId id;
    size_t next_succ;
  };
  std::vector<Frame> stack;
  const BlockId entry_block = block_of_[program_->entry()];
  stack.push_back({entry_block, 0});
  visited[entry_block] = 1;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const BasicBlock& block = blocks_[frame.id];
    if (frame.next_succ < block.successors.size()) {
      const BlockId succ = block.successors[frame.next_succ++];
      if (!visited[succ]) {
        visited[succ] = 1;
        stack.push_back({succ, 0});
      }
    } else {
      postorder.push_back(frame.id);
      stack.pop_back();
    }
  }
  std::reverse(postorder.begin(), postorder.end());
  return postorder;
}

std::string ControlFlowGraph::ToDot() const {
  std::string out = "digraph cfg {\n  node [shape=box, fontname=monospace];\n";
  for (const BasicBlock& block : blocks_) {
    std::string label = StrFormat("B%u [%u..%u)\\l", block.id, block.start, block.end);
    for (isa::Addr addr = block.start; addr < block.end; ++addr) {
      label += StrFormat("%u: %s\\l", addr,
                         isa::FormatInstruction(program_->at(addr)).c_str());
    }
    out += StrFormat("  b%u [label=\"%s\"];\n", block.id, label.c_str());
    for (BlockId succ : block.successors) {
      out += StrFormat("  b%u -> b%u;\n", block.id, succ);
    }
    if (block.call_target != isa::kInvalidAddr) {
      out += StrFormat("  b%u -> b%u [style=dashed];\n", block.id,
                       block_of_[block.call_target]);
    }
  }
  out += "}\n";
  return out;
}

}  // namespace yieldhide::analysis
