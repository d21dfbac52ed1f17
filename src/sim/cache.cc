#include "src/sim/cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace yieldhide::sim {

namespace {
[[maybe_unused]] bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// Moves set[pos] to the front, shifting the more recent entries back by one.
void Promote(uint64_t* set, uint32_t pos) {
  const uint64_t line = set[pos];
  std::memmove(set + 1, set, pos * sizeof(uint64_t));
  set[0] = line;
}
}  // namespace

Cache::Cache(const CacheLevelConfig& config) : config_(config), ways_(config.ways) {
  const uint64_t num_sets = config.num_sets();
  assert(num_sets > 0 && IsPowerOfTwo(num_sets) &&
         "cache size must be a power-of-two multiple of line*ways");
  set_mask_ = num_sets - 1;
  tags_.assign(num_sets * ways_, kEmpty);
}

uint32_t Cache::Find(const uint64_t* set, uint64_t line_addr) const {
  uint32_t w = 0;
  while (w < ways_ && set[w] != line_addr) {
    ++w;
  }
  return w;
}

bool Cache::Contains(uint64_t line_addr) const {
  return Find(SetOf(line_addr), line_addr) < ways_;
}

bool Cache::Lookup(uint64_t line_addr) {
  ++stats_.lookups;
  uint64_t* set = SetOf(line_addr);
  const uint32_t pos = Find(set, line_addr);
  if (pos == ways_) {
    return false;
  }
  Promote(set, pos);
  ++stats_.hits;
  return true;
}

bool Cache::Install(uint64_t line_addr, uint64_t* evicted) {
  assert(line_addr != kEmpty);
  ++stats_.installs;
  uint64_t* set = SetOf(line_addr);
  const uint32_t pos = Find(set, line_addr);
  if (pos < ways_) {
    Promote(set, pos);  // refresh, already present
    return false;
  }
  // The last entry is the LRU line, or empty while the set has a free way.
  const uint64_t victim = set[ways_ - 1];
  std::memmove(set + 1, set, (ways_ - 1) * sizeof(uint64_t));
  set[0] = line_addr;
  if (victim == kEmpty) {
    return false;
  }
  ++stats_.evictions;
  if (evicted != nullptr) {
    *evicted = victim;
  }
  return true;
}

void Cache::Reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  stats_ = Stats{};
}

}  // namespace yieldhide::sim
