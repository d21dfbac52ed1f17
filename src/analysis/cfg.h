// Control-flow-graph recovery from a binary Program, the first stage of the
// binary-level instrumentation pipeline (paper §3.2: "disassembly and control
// flow graph construction ... similar to existing binary optimizers").
//
// The CFG covers the whole program; functions appear as weakly-connected
// components. CALL terminates a block with a single fall-through successor
// (the return point) — the call target is recorded separately so
// inter-procedural passes can chase it, while intra-procedural dataflow stays
// well-defined.
#ifndef YIELDHIDE_SRC_ANALYSIS_CFG_H_
#define YIELDHIDE_SRC_ANALYSIS_CFG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/isa/program.h"

namespace yieldhide::analysis {

using BlockId = uint32_t;
inline constexpr BlockId kNoBlock = 0xffffffffu;

struct BasicBlock {
  BlockId id = kNoBlock;
  isa::Addr start = 0;  // first instruction
  isa::Addr end = 0;    // one past the last instruction
  std::vector<BlockId> successors;
  std::vector<BlockId> predecessors;
  // For blocks ending in CALL: the callee entry address.
  isa::Addr call_target = isa::kInvalidAddr;

  size_t size() const { return end - start; }
  isa::Addr last() const { return end - 1; }
};

class ControlFlowGraph {
 public:
  static Result<ControlFlowGraph> Build(const isa::Program& program);

  const isa::Program& program() const { return *program_; }
  size_t block_count() const { return blocks_.size(); }
  const BasicBlock& block(BlockId id) const { return blocks_[id]; }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }

  // Block containing `addr`.
  BlockId BlockOf(isa::Addr addr) const { return block_of_[addr]; }

  // Blocks reachable from the program entry, in reverse post-order (for
  // forward dataflow) — restricted to the entry's component.
  std::vector<BlockId> ReversePostOrder() const;

  std::string ToDot() const;  // graphviz rendering for debugging/docs

 private:
  const isa::Program* program_ = nullptr;
  std::vector<BasicBlock> blocks_;
  std::vector<BlockId> block_of_;  // per instruction address
};

}  // namespace yieldhide::analysis

#endif  // YIELDHIDE_SRC_ANALYSIS_CFG_H_
