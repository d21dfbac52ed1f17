// Binary-search-tree index lookups: a balanced BST whose nodes are scattered
// through memory in random allocation order. Each lookup descends ~log2(N)
// levels; upper levels stay cached while leaf levels miss, giving the
// per-site miss probability a value strictly between 0 and 1 — the regime
// where the gain/cost model (not just a 0/1 threshold) earns its keep.
#ifndef YIELDHIDE_SRC_WORKLOADS_BTREE_LOOKUP_H_
#define YIELDHIDE_SRC_WORKLOADS_BTREE_LOOKUP_H_

#include <vector>

#include "src/common/status.h"
#include "src/workloads/workload.h"

namespace yieldhide::workloads {

class BtreeLookup : public SimWorkload {
 public:
  struct Config {
    uint64_t num_keys = 1 << 16;
    uint64_t lookups_per_task = 256;
    double hit_fraction = 0.9;
    uint64_t seed = 11;
    uint64_t num_tasks = 64;
  };

  static Result<BtreeLookup> Make(const Config& config);

  const isa::Program& program() const override { return program_; }
  void InitMemory(sim::SparseMemory& memory) const override;
  ContextSetup SetupFor(int index) const override;
  uint64_t ExpectedResult(int index) const override;

  const Config& config() const { return config_; }
  isa::Addr node_key_load_addr() const { return node_key_load_addr_; }

 private:
  BtreeLookup() = default;

  // Node layout (32 B): [key:8][value:8][left:8][right:8]; slot = index into
  // the node array; address 0 = null.
  uint64_t NodeAddr(uint64_t slot) const { return kDataRegionBase + 64 + slot * 32; }
  uint64_t LookupAddr(int task) const {
    return kAuxRegionBase + static_cast<uint64_t>(task) * config_.lookups_per_task * 8;
  }
  // Builds the balanced tree over sorted_keys[lo, hi); returns node address.
  uint64_t BuildSubtree(const std::vector<uint64_t>& sorted_keys, uint64_t lo,
                        uint64_t hi, std::vector<uint64_t>& scattered_slots,
                        uint64_t& next_slot);

  Config config_;
  isa::Program program_;
  isa::Addr node_key_load_addr_ = 0;
  // Host mirror of the tree, indexed by slot.
  std::vector<uint64_t> node_key_, node_value_, node_left_, node_right_;
  uint64_t root_addr_ = 0;
  std::vector<std::vector<uint64_t>> task_lookups_;
};

}  // namespace yieldhide::workloads

#endif  // YIELDHIDE_SRC_WORKLOADS_BTREE_LOOKUP_H_
