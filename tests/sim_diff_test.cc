// Differential tests of the cache model against reference implementations.
//
// RefCache is the stamp-based true-LRU cache the simulator used before sets
// were kept in recency order; RefHierarchy is the memory hierarchy built on
// it that scans the whole MSHR on every call. Both are kept here unchanged as
// oracles: on any operation stream the optimized Cache and MemoryHierarchy
// must return exactly what they return.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/sim/hierarchy.h"

namespace yieldhide::sim {
namespace {

class RefCache {
 public:
  explicit RefCache(const CacheLevelConfig& config) : config_(config) {
    num_sets_ = config.num_sets();
    set_mask_ = num_sets_ - 1;
    ways_.resize(num_sets_ * config.ways);
  }

  bool Contains(uint64_t line_addr) const { return FindWay(line_addr) != nullptr; }

  bool Lookup(uint64_t line_addr) {
    ++stats_.lookups;
    Way* way = FindWay(line_addr);
    if (way == nullptr) {
      return false;
    }
    way->lru_stamp = ++lru_clock_;
    ++stats_.hits;
    return true;
  }

  bool Install(uint64_t line_addr, uint64_t* evicted = nullptr) {
    ++stats_.installs;
    Way* base = &ways_[SetIndex(line_addr) * config_.ways];
    Way* victim = nullptr;
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].line_addr == line_addr) {
        base[w].lru_stamp = ++lru_clock_;  // refresh, already present
        return false;
      }
      if (!base[w].valid) {
        if (victim == nullptr || victim->valid) {
          victim = &base[w];
        }
      } else if (victim == nullptr ||
                 (victim->valid && base[w].lru_stamp < victim->lru_stamp)) {
        victim = &base[w];
      }
    }
    const bool evicting = victim->valid;
    if (evicting) {
      ++stats_.evictions;
      if (evicted != nullptr) {
        *evicted = victim->line_addr;
      }
    }
    victim->valid = true;
    victim->line_addr = line_addr;
    victim->lru_stamp = ++lru_clock_;
    return evicting;
  }

  void Reset() {
    for (Way& way : ways_) {
      way = Way{};
    }
    lru_clock_ = 0;
    stats_ = Cache::Stats{};
  }

  const Cache::Stats& stats() const { return stats_; }

 private:
  struct Way {
    uint64_t line_addr = 0;
    bool valid = false;
    uint64_t lru_stamp = 0;  // larger = more recently used
  };

  size_t SetIndex(uint64_t line_addr) const { return line_addr & set_mask_; }

  Way* FindWay(uint64_t line_addr) {
    Way* base = &ways_[SetIndex(line_addr) * config_.ways];
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].line_addr == line_addr) {
        return &base[w];
      }
    }
    return nullptr;
  }
  const Way* FindWay(uint64_t line_addr) const {
    return const_cast<RefCache*>(this)->FindWay(line_addr);
  }

  CacheLevelConfig config_;
  size_t num_sets_;
  uint64_t set_mask_;
  uint64_t lru_clock_ = 0;
  std::vector<Way> ways_;
  Cache::Stats stats_;
};

class RefHierarchy {
 public:
  explicit RefHierarchy(const HierarchyConfig& config)
      : config_(config), l1_(config.l1), l2_(config.l2), l3_(config.l3) {
    while ((1u << line_bits_) < config.l1.line_bytes) {
      ++line_bits_;
    }
  }

  uint64_t LineOf(uint64_t byte_addr) const { return byte_addr >> line_bits_; }

  AccessResult AccessLoad(uint64_t byte_addr, uint64_t now) {
    ++stats_.loads;
    DrainMshr(now);
    const uint64_t line = LineOf(byte_addr);

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
        mshr_.emplace(next_line, Fill{now + MissLatency(source)});
        ++stats_.hw_prefetches;
      }
    }
    last_demand_line_ = line;

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
      result.level = HitLevel::kDram;
      ++stats_.dram_accesses;
      if (mshr_.size() < config_.mshr_entries) {
        mshr_.emplace(line, Fill{now + config_.dram_latency_cycles});
      } else {
        InstallEverywhere(line);
      }
    }
    result.latency_cycles = MissLatency(result.level);
    return result;
  }

  bool AccessStore(uint64_t byte_addr, uint64_t now) {
    ++stats_.stores;
    DrainMshr(now);
    const uint64_t line = LineOf(byte_addr);
    if (l1_.Lookup(line)) {
      return true;
    }
    ++stats_.store_misses;
    InstallEverywhere(line);
    return false;
  }

  bool Prefetch(uint64_t byte_addr, uint64_t now) {
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
    HitLevel source = HitLevel::kDram;
    if (l2_.Contains(line)) {
      source = HitLevel::kL2;
    } else if (l3_.Contains(line)) {
      source = HitLevel::kL3;
    }
    mshr_.emplace(line, Fill{now + MissLatency(source)});
    ++stats_.prefetches_issued;
    return true;
  }

  HitLevel ProbeLevel(uint64_t byte_addr) const {
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

  bool WouldHitFast(uint64_t byte_addr, uint64_t now, uint32_t threshold_cycles) const {
    const uint64_t line = LineOf(byte_addr);
    auto pending = mshr_.find(line);
    if (pending != mshr_.end()) {
      const uint64_t remaining =
          pending->second.ready_cycle > now ? pending->second.ready_cycle - now : 0;
      return remaining + config_.l1.latency_cycles <= threshold_cycles;
    }
    return MissLatency(ProbeLevel(byte_addr)) <= threshold_cycles;
  }

  void Reset() {
    l1_.Reset();
    l2_.Reset();
    l3_.Reset();
    mshr_.clear();
    last_demand_line_ = ~0ull;
    stats_ = MemoryHierarchy::Stats{};
  }

  const MemoryHierarchy::Stats& stats() const { return stats_; }
  size_t inflight_fills() const { return mshr_.size(); }

 private:
  struct Fill {
    uint64_t ready_cycle;
  };

  void DrainMshr(uint64_t now) {
    for (auto it = mshr_.begin(); it != mshr_.end();) {
      if (it->second.ready_cycle <= now) {
        InstallEverywhere(it->first);
        it = mshr_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void InstallEverywhere(uint64_t line) {
    l1_.Install(line);
    l2_.Install(line);
    l3_.Install(line);
  }

  uint32_t MissLatency(HitLevel level) const {
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

  HierarchyConfig config_;
  uint32_t line_bits_ = 0;
  uint64_t last_demand_line_ = ~0ull;
  RefCache l1_;
  RefCache l2_;
  RefCache l3_;
  std::unordered_map<uint64_t, Fill> mshr_;
  MemoryHierarchy::Stats stats_;
};

std::array<uint64_t, 4> Fields(const Cache::Stats& s) {
  return {s.lookups, s.hits, s.installs, s.evictions};
}

std::array<uint64_t, 12> Fields(const MemoryHierarchy::Stats& s) {
  return {s.loads,          s.l1_hits,           s.l2_hits,
          s.l3_hits,        s.dram_accesses,     s.inflight_merges,
          s.stores,         s.store_misses,      s.prefetches_issued,
          s.prefetches_useless, s.prefetches_dropped, s.hw_prefetches};
}

// Draws line addresses that crowd a few sets of `sets` (so every level
// evicts), with a share drawn from the whole line space and a share that
// continues a sequential stream (so the next-line prefetcher fires).
class LineSource {
 public:
  LineSource(uint64_t sets, uint32_t ways, uint64_t seed)
      : sets_(sets), ways_(ways), rng_(seed) {}

  uint64_t Next() {
    const uint64_t kind = rng_.NextBelow(16);
    if (kind == 0) {
      last_ = rng_.NextBelow(1ull << 40);
    } else if (kind <= 3) {
      last_ = last_ + 1;
    } else {
      const uint64_t set = rng_.NextBelow(8);
      const uint64_t tag = rng_.NextBelow(3 * ways_);
      last_ = tag * sets_ + set;
    }
    return last_;
  }

  Rng& rng() { return rng_; }

 private:
  uint64_t sets_;
  uint32_t ways_;
  Rng rng_;
  uint64_t last_ = 0;
};

void FuzzCache(const CacheLevelConfig& config, uint64_t seed, int ops) {
  Cache cache(config);
  RefCache ref(config);
  LineSource lines(config.num_sets(), config.ways, seed);
  for (int i = 0; i < ops; ++i) {
    const uint64_t line = lines.Next();
    const uint64_t op = lines.rng().NextBelow(64);
    if (lines.rng().NextBelow(1 << 14) == 0) {
      cache.Reset();
      ref.Reset();
    } else if (op < 16) {
      ASSERT_EQ(cache.Contains(line), ref.Contains(line)) << config.name << " op " << i;
    } else if (op < 40) {
      ASSERT_EQ(cache.Lookup(line), ref.Lookup(line)) << config.name << " op " << i;
    } else {
      uint64_t evicted = 0;
      uint64_t ref_evicted = 0;
      const bool evicting = cache.Install(line, &evicted);
      ASSERT_EQ(evicting, ref.Install(line, &ref_evicted)) << config.name << " op " << i;
      if (evicting) {
        ASSERT_EQ(evicted, ref_evicted) << config.name << " op " << i;
      }
    }
    ASSERT_EQ(Fields(cache.stats()), Fields(ref.stats())) << config.name << " op " << i;
  }
}

TEST(CacheDiffTest, MatchesStampLruOnRandomStreams) {
  const MachineConfig presets[] = {MachineConfig::SkylakeLike(), MachineConfig::SmallTest()};
  uint64_t seed = 1;
  for (const MachineConfig& preset : presets) {
    const HierarchyConfig& h = preset.hierarchy;
    for (const CacheLevelConfig& level : {h.l1, h.l2, h.l3}) {
      FuzzCache(level, seed++, 200'000);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

void FuzzHierarchy(const HierarchyConfig& config, uint64_t seed, int ops) {
  MemoryHierarchy hierarchy(config);
  RefHierarchy ref(config);
  LineSource lines(config.l3.num_sets(), config.l3.ways, seed);
  Rng& rng = lines.rng();
  uint64_t now = 0;
  for (int i = 0; i < ops; ++i) {
    // Time mostly creeps forward, sometimes leaps past every pending fill,
    // and sometimes runs backwards (contexts of one machine interleave).
    const uint64_t step = rng.NextBelow(32);
    if (step == 0) {
      now += rng.NextBelow(2000);
    } else if (step == 1) {
      now -= rng.NextBelow(std::min<uint64_t>(now, 3000) + 1);
    } else {
      now += rng.NextBelow(24);
    }
    const uint64_t addr = (lines.Next() << 6) | rng.NextBelow(64);
    const uint64_t op = rng.NextBelow(64);
    if (rng.NextBelow(1 << 14) == 0) {
      hierarchy.Reset();
      ref.Reset();
    } else if (op < 24) {
      const AccessResult got = hierarchy.AccessLoad(addr, now);
      const AccessResult want = ref.AccessLoad(addr, now);
      ASSERT_EQ(got.level, want.level) << "op " << i;
      ASSERT_EQ(got.latency_cycles, want.latency_cycles) << "op " << i;
      ASSERT_EQ(got.hit_inflight, want.hit_inflight) << "op " << i;
    } else if (op < 36) {
      ASSERT_EQ(hierarchy.AccessStore(addr, now), ref.AccessStore(addr, now)) << "op " << i;
    } else if (op < 52) {
      ASSERT_EQ(hierarchy.Prefetch(addr, now), ref.Prefetch(addr, now)) << "op " << i;
    } else if (op < 58) {
      ASSERT_EQ(hierarchy.ProbeLevel(addr), ref.ProbeLevel(addr)) << "op " << i;
    } else {
      const uint32_t threshold = static_cast<uint32_t>(rng.NextBelow(256));
      ASSERT_EQ(hierarchy.WouldHitFast(addr, now, threshold),
                ref.WouldHitFast(addr, now, threshold))
          << "op " << i;
    }
    ASSERT_EQ(hierarchy.inflight_fills(), ref.inflight_fills()) << "op " << i;
    ASSERT_EQ(Fields(hierarchy.stats()), Fields(ref.stats())) << "op " << i;
  }
}

TEST(HierarchyDiffTest, MatchesFullMshrScanOnRandomStreams) {
  uint64_t seed = 100;
  for (MachineConfig preset : {MachineConfig::SkylakeLike(), MachineConfig::SmallTest()}) {
    for (const bool nextline : {false, true}) {
      for (const uint32_t mshr_entries : {4u, 16u}) {
        HierarchyConfig config = preset.hierarchy;
        config.enable_nextline_prefetcher = nextline;
        config.mshr_entries = mshr_entries;
        SCOPED_TRACE(::testing::Message() << config.l3.name << " l3 size "
                                          << config.l3.size_bytes << " nextline "
                                          << nextline << " mshr " << mshr_entries);
        FuzzHierarchy(config, seed++, 150'000);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace yieldhide::sim
