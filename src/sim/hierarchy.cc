#include "src/sim/hierarchy.h"

#include <algorithm>
#include <cassert>

namespace yieldhide::sim {

namespace {
uint32_t Log2(uint32_t x) {
  uint32_t bits = 0;
  while ((1u << bits) < x) {
    ++bits;
  }
  return bits;
}
}  // namespace

const char* HitLevelName(HitLevel level) {
  switch (level) {
    case HitLevel::kL1:
      return "L1";
    case HitLevel::kL2:
      return "L2";
    case HitLevel::kL3:
      return "L3";
    case HitLevel::kDram:
      return "DRAM";
  }
  return "?";
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : config_(config),
      line_bits_(Log2(config.l1.line_bytes)),
      l1_(config.l1),
      l2_(config.l2),
      l3_(config.l3) {
  assert(config.l1.line_bytes == config.l2.line_bytes &&
         config.l2.line_bytes == config.l3.line_bytes &&
         "all levels must share a line size");
}

void MemoryHierarchy::DrainMshr(uint64_t now) {
  if (now < mshr_min_ready_) {
    return;
  }
  uint64_t min_ready = ~0ull;
  for (auto it = mshr_.begin(); it != mshr_.end();) {
    if (it->second.ready_cycle <= now) {
      InstallEverywhere(it->first);
      it = mshr_.erase(it);
    } else {
      min_ready = std::min(min_ready, it->second.ready_cycle);
      ++it;
    }
  }
  mshr_min_ready_ = min_ready;
}

void MemoryHierarchy::StartFill(uint64_t line, uint64_t ready_cycle) {
  mshr_.emplace(line, Fill{ready_cycle});
  mshr_min_ready_ = std::min(mshr_min_ready_, ready_cycle);
}

void MemoryHierarchy::InstallEverywhere(uint64_t line) {
  l1_.Install(line);
  l2_.Install(line);
  l3_.Install(line);
}

uint32_t MemoryHierarchy::MissLatency(HitLevel level) const {
  switch (level) {
    case HitLevel::kL1:
      return config_.l1.latency_cycles;
    case HitLevel::kL2:
      return config_.l2.latency_cycles;
    case HitLevel::kL3:
      return config_.l3.latency_cycles;
    case HitLevel::kDram:
      return config_.dram_latency_cycles;
  }
  return config_.dram_latency_cycles;
}

AccessResult MemoryHierarchy::AccessLoad(uint64_t byte_addr, uint64_t now) {
  ++stats_.loads;
  DrainMshr(now);
  const uint64_t line = LineOf(byte_addr);

  // Next-line hardware prefetcher: sequential-stream detection.
  if (config_.enable_nextline_prefetcher && line == last_demand_line_ + 1) {
    const uint64_t next_line = line + 1;
    if (!l1_.Contains(next_line) && mshr_.count(next_line) == 0 &&
        mshr_.size() < config_.mshr_entries) {
      HitLevel source = HitLevel::kDram;
      if (l2_.Contains(next_line)) {
        source = HitLevel::kL2;
      } else if (l3_.Contains(next_line)) {
        source = HitLevel::kL3;
      }
      StartFill(next_line, now + MissLatency(source));
      ++stats_.hw_prefetches;
    }
  }
  last_demand_line_ = line;

  // A pending fill (from a prefetch, or from another coroutine's miss) merges:
  // the load waits only the remaining fill time plus the L1 hit latency.
  auto pending = mshr_.find(line);
  if (pending != mshr_.end()) {
    AccessResult result;
    result.hit_inflight = true;
    result.level = HitLevel::kL1;
    result.latency_cycles =
        static_cast<uint32_t>(pending->second.ready_cycle - now) +
        config_.l1.latency_cycles;
    InstallEverywhere(line);
    mshr_.erase(pending);
    ++stats_.inflight_merges;
    ++stats_.l1_hits;
    return result;
  }

  AccessResult result;
  if (l1_.Lookup(line)) {
    result.level = HitLevel::kL1;
    ++stats_.l1_hits;
  } else if (l2_.Lookup(line)) {
    result.level = HitLevel::kL2;
    l1_.Install(line);
    ++stats_.l2_hits;
  } else if (l3_.Lookup(line)) {
    result.level = HitLevel::kL3;
    l1_.Install(line);
    l2_.Install(line);
    ++stats_.l3_hits;
  } else {
    // DRAM miss: the fill occupies an MSHR entry until it completes, so a
    // concurrent context touching the same line merges with this fill
    // instead of seeing the line appear instantaneously.
    result.level = HitLevel::kDram;
    ++stats_.dram_accesses;
    if (mshr_.size() < config_.mshr_entries) {
      StartFill(line, now + config_.dram_latency_cycles);
    } else {
      InstallEverywhere(line);  // MSHR full: degrade to instant install
    }
  }
  result.latency_cycles = MissLatency(result.level);
  return result;
}

bool MemoryHierarchy::AccessStore(uint64_t byte_addr, uint64_t now) {
  ++stats_.stores;
  DrainMshr(now);
  const uint64_t line = LineOf(byte_addr);
  if (l1_.Lookup(line)) {
    return true;
  }
  ++stats_.store_misses;
  // Write-allocate without stalling: the store buffer absorbs the latency.
  InstallEverywhere(line);
  return false;
}

bool MemoryHierarchy::Prefetch(uint64_t byte_addr, uint64_t now) {
  DrainMshr(now);
  const uint64_t line = LineOf(byte_addr);
  if (l1_.Contains(line) || mshr_.count(line) != 0) {
    ++stats_.prefetches_useless;
    return false;
  }
  if (mshr_.size() >= config_.mshr_entries) {
    ++stats_.prefetches_dropped;
    return false;
  }
  // The fill takes as long as the deepest level that has the line. Probe
  // without LRU updates; the install happens when the fill completes.
  HitLevel source = HitLevel::kDram;
  if (l2_.Contains(line)) {
    source = HitLevel::kL2;
  } else if (l3_.Contains(line)) {
    source = HitLevel::kL3;
  }
  StartFill(line, now + MissLatency(source));
  ++stats_.prefetches_issued;
  return true;
}

HitLevel MemoryHierarchy::ProbeLevel(uint64_t byte_addr) const {
  const uint64_t line = LineOf(byte_addr);
  if (l1_.Contains(line)) {
    return HitLevel::kL1;
  }
  if (l2_.Contains(line)) {
    return HitLevel::kL2;
  }
  if (l3_.Contains(line)) {
    return HitLevel::kL3;
  }
  return HitLevel::kDram;
}

bool MemoryHierarchy::WouldHitFast(uint64_t byte_addr, uint64_t now,
                                   uint32_t threshold_cycles) const {
  const uint64_t line = LineOf(byte_addr);
  auto pending = mshr_.find(line);
  if (pending != mshr_.end()) {
    const uint64_t remaining =
        pending->second.ready_cycle > now ? pending->second.ready_cycle - now : 0;
    return remaining + config_.l1.latency_cycles <= threshold_cycles;
  }
  return MissLatency(ProbeLevel(byte_addr)) <= threshold_cycles;
}

void MemoryHierarchy::Reset() {
  l1_.Reset();
  l2_.Reset();
  l3_.Reset();
  mshr_.clear();
  mshr_min_ready_ = ~0ull;
  last_demand_line_ = ~0ull;
  stats_ = Stats{};
}

}  // namespace yieldhide::sim
