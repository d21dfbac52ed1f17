// Machine: the shared micro-architectural state one simulated core exposes to
// however many software contexts (coroutines or SMT hardware threads) run on
// it — data memory, the cache hierarchy, the global cycle clock, and the
// event-listener fan-out.
#ifndef YIELDHIDE_SRC_SIM_MACHINE_H_
#define YIELDHIDE_SRC_SIM_MACHINE_H_

#include <cstdint>

#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/sim/hierarchy.h"
#include "src/sim/memory.h"

namespace yieldhide::sim {

class Machine {
 public:
  explicit Machine(const MachineConfig& config)
      : config_(config), hierarchy_(config.hierarchy) {}

  const MachineConfig& config() const { return config_; }
  SparseMemory& memory() { return memory_; }
  const SparseMemory& memory() const { return memory_; }
  MemoryHierarchy& hierarchy() { return hierarchy_; }
  const MemoryHierarchy& hierarchy() const { return hierarchy_; }
  MulticastListener& listeners() { return listeners_; }

  uint64_t now() const { return now_; }
  void AdvanceClock(uint64_t cycles) { now_ += cycles; }
  // Used by SMT scheduling when all contexts are waiting on memory.
  void AdvanceClockTo(uint64_t cycle) {
    if (cycle > now_) {
      now_ = cycle;
    }
  }

  // Resets caches and the clock but keeps data memory (a warmed data image is
  // usually reused across runs). Call memory().Clear() to drop data too.
  void ResetMicroarchState() {
    hierarchy_.Reset();
    now_ = 0;
  }

 private:
  MachineConfig config_;
  SparseMemory memory_;
  MemoryHierarchy hierarchy_;
  MulticastListener listeners_;
  uint64_t now_ = 0;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_MACHINE_H_
