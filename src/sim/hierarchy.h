// Three-level cache hierarchy with an MSHR table modelling asynchronous,
// overlappable fills. This is the substrate that makes the paper's mechanism
// visible: a PREFETCH starts a fill without blocking, and the latency of the
// fill can be hidden by running other coroutines until the line is ready.
#ifndef YIELDHIDE_SRC_SIM_HIERARCHY_H_
#define YIELDHIDE_SRC_SIM_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "src/sim/cache.h"
#include "src/sim/config.h"

namespace yieldhide::sim {

// Where a memory access was satisfied.
enum class HitLevel : uint8_t { kL1 = 1, kL2 = 2, kL3 = 3, kDram = 4 };

struct AccessResult {
  HitLevel level = HitLevel::kL1;
  // Total load-to-use latency in cycles, including any remaining wait on an
  // in-flight fill.
  uint32_t latency_cycles = 0;
  // True if the access was satisfied by (or merged with) an in-flight fill
  // started earlier — i.e. a prefetch (or another context's miss) hid some or
  // all of the miss latency.
  bool hit_inflight = false;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config);

  uint32_t line_bytes() const { return config_.l1.line_bytes; }
  uint64_t LineOf(uint64_t byte_addr) const { return byte_addr >> line_bits_; }

  // Demand load of the line containing `byte_addr` at time `now`.
  AccessResult AccessLoad(uint64_t byte_addr, uint64_t now);

  // Store: tag-checked against L1 only; misses allocate the line without
  // stalling (posted through a store buffer). Returns true on L1 hit.
  bool AccessStore(uint64_t byte_addr, uint64_t now);

  // Starts an asynchronous fill of the line into L1 if it is not already
  // present or in flight. Never blocks. Returns false if the prefetch was
  // dropped (MSHR full) or unnecessary.
  bool Prefetch(uint64_t byte_addr, uint64_t now);

  // Deepest level that currently holds the line (no LRU side effects), or
  // kDram if uncached. Models the paper's §4.1 hardware-visibility probe.
  HitLevel ProbeLevel(uint64_t byte_addr) const;

  // True if a demand load at `now` would complete in at most
  // `threshold_cycles` (present in L1/L2 or an almost-complete fill).
  bool WouldHitFast(uint64_t byte_addr, uint64_t now, uint32_t threshold_cycles) const;

  void Reset();

  struct Stats {
    uint64_t loads = 0;
    uint64_t l1_hits = 0;
    uint64_t l2_hits = 0;
    uint64_t l3_hits = 0;
    uint64_t dram_accesses = 0;
    uint64_t inflight_merges = 0;     // demand loads that found a pending fill
    uint64_t prefetches_issued = 0;
    uint64_t prefetches_useless = 0;  // line already cached or in flight
    uint64_t prefetches_dropped = 0;  // MSHR full
  };
  const Stats& stats() const { return stats_; }
  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  const Cache& l3() const { return l3_; }
  size_t inflight_fills() const { return mshr_.size(); }

 private:
  struct Fill {
    uint64_t line;
    uint64_t ready_cycle;
  };

  // Installs completed fills (ready <= now) into the caches. Returns at once
  // while `now` is below mshr_min_ready_.
  void DrainMshr(uint64_t now);
  // The pending fill of `line`, or mshr_.end().
  std::vector<Fill>::const_iterator FindFill(uint64_t line) const;
  void StartFill(uint64_t line, uint64_t ready_cycle);
  void InstallEverywhere(uint64_t line);
  // Latency of fetching a line found at `level`.
  uint32_t MissLatency(HitLevel level) const;
  // Where a fill of `line` comes from once L1 has missed: L2, else L3, else
  // DRAM. Probes tags without LRU updates.
  HitLevel FillSource(uint64_t line) const;

  HierarchyConfig config_;
  uint32_t line_bits_;
  uint64_t last_demand_line_ = ~0ull;
  Cache l1_;
  Cache l2_;
  Cache l3_;
  // Pending fills, one per line, in no order: the drain installs completed
  // fills in (ready_cycle, line) order. Capacity for config_.mshr_entries is
  // reserved up front, and every StartFill caller checks that bound first.
  std::vector<Fill> mshr_;
  // Lower bound on every pending ready_cycle: lowered by each StartFill and
  // recomputed by each scan. An erase on a merge leaves it low, which only
  // costs one scan.
  uint64_t mshr_min_ready_ = ~0ull;
  Stats stats_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_HIERARCHY_H_
