// A single set-associative cache level with true-LRU replacement.
// Addresses handled here are line addresses (byte address >> line bits).
#ifndef YIELDHIDE_SRC_SIM_CACHE_H_
#define YIELDHIDE_SRC_SIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/sim/config.h"

namespace yieldhide::sim {

class Cache {
 public:
  explicit Cache(const CacheLevelConfig& config);

  // Tag check without side effects (no LRU update). Used both internally and
  // to model the paper's §4.1 "is this line cached?" hardware probe.
  bool Contains(uint64_t line_addr) const;

  // Tag check with LRU update on hit. Does not fill on miss.
  bool Lookup(uint64_t line_addr);

  // Installs a line, evicting the LRU way if the set is full. Returns true if
  // an eviction occurred (evicted line in *evicted when non-null).
  bool Install(uint64_t line_addr, uint64_t* evicted = nullptr);

  void Reset();

  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t installs = 0;
    uint64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }
  const CacheLevelConfig& config() const { return config_; }

 private:
  // Marks an empty way. Line addresses are byte addresses shifted right by
  // the line bits, so no real line equals it.
  static constexpr uint64_t kEmpty = ~0ull;

  // Each set holds its tags in recency order, most recently used first, with
  // empty ways at the back: the LRU victim is always the last entry, so no
  // per-way stamp is stored. 8 bytes per way keeps the 8 MiB L3's tag state
  // at 1 MiB of host memory.
  uint64_t* SetOf(uint64_t line_addr) { return &tags_[(line_addr & set_mask_) * ways_]; }
  const uint64_t* SetOf(uint64_t line_addr) const {
    return &tags_[(line_addr & set_mask_) * ways_];
  }
  // Position of `line_addr` in `set`, or ways_ if absent.
  uint32_t Find(const uint64_t* set, uint64_t line_addr) const;

  CacheLevelConfig config_;
  uint32_t ways_;
  uint64_t set_mask_;
  std::vector<uint64_t> tags_;  // num_sets * ways, row-major by set
  Stats stats_;
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_CACHE_H_
