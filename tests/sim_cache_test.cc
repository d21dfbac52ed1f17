#include <gtest/gtest.h>

#include "src/sim/cache.h"
#include "src/sim/hierarchy.h"
#include "src/sim/memory.h"

namespace yieldhide::sim {
namespace {

CacheLevelConfig TinyCache() {
  // 4 sets x 2 ways x 64 B = 512 B.
  return {"T", 512, 64, 2, 4};
}

// --- SparseMemory --------------------------------------------------------------

TEST(SparseMemoryTest, UnwrittenReadsZero) {
  SparseMemory memory;
  EXPECT_EQ(memory.Read64(0x12345678), 0u);
  EXPECT_EQ(memory.resident_pages(), 0u);
}

TEST(SparseMemoryTest, WriteReadRoundTrip) {
  SparseMemory memory;
  memory.Write64(0x1000, 0xdeadbeefcafef00dull);
  EXPECT_EQ(memory.Read64(0x1000), 0xdeadbeefcafef00dull);
}

TEST(SparseMemoryTest, PageStraddlingAccess) {
  SparseMemory memory;
  const uint64_t addr = SparseMemory::kPageSize - 3;
  memory.Write64(addr, 0x1122334455667788ull);
  EXPECT_EQ(memory.Read64(addr), 0x1122334455667788ull);
  EXPECT_EQ(memory.resident_pages(), 2u);
}

TEST(SparseMemoryTest, ByteAccess) {
  SparseMemory memory;
  memory.WriteByte(7, 0xab);
  EXPECT_EQ(memory.ReadByte(7), 0xab);
  EXPECT_EQ(memory.Read64(0), 0xab00000000000000ull >> (7 * 8) << (7 * 8));
}

TEST(SparseMemoryTest, ClearDropsPages) {
  SparseMemory memory;
  memory.Write64(0, 1);
  memory.Clear();
  EXPECT_EQ(memory.resident_pages(), 0u);
  EXPECT_EQ(memory.Read64(0), 0u);
}

// --- Cache ---------------------------------------------------------------------

TEST(CacheTest, MissThenHit) {
  Cache cache(TinyCache());
  EXPECT_FALSE(cache.Lookup(1));
  EXPECT_FALSE(cache.Contains(1));  // a miss does not fill
  cache.Install(1);
  EXPECT_TRUE(cache.Lookup(1));
}

TEST(CacheTest, ContainsHasNoSideEffects) {
  Cache cache(TinyCache());  // 4 sets, 2 ways; lines 0,4,8 share set 0
  cache.Install(0);
  cache.Install(4);
  EXPECT_TRUE(cache.Contains(0));  // a Lookup here would make 4 the LRU line
  uint64_t evicted = 0;
  EXPECT_TRUE(cache.Install(8, &evicted));
  EXPECT_EQ(evicted, 0u);
}

TEST(CacheTest, LruEviction) {
  Cache cache(TinyCache());  // 4 sets, 2 ways; lines 0,4,8 share set 0
  cache.Install(0);
  cache.Install(4);
  cache.Lookup(0);  // 0 is now MRU; 4 is LRU
  uint64_t evicted = 0;
  EXPECT_TRUE(cache.Install(8, &evicted));
  EXPECT_EQ(evicted, 4u);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(4));
  EXPECT_TRUE(cache.Contains(8));
}

TEST(CacheTest, InstallRefreshesExisting) {
  Cache cache(TinyCache());
  cache.Install(0);
  cache.Install(4);
  cache.Install(0);  // refresh, not duplicate: 4 becomes LRU
  uint64_t evicted = 0;
  cache.Install(8, &evicted);
  EXPECT_EQ(evicted, 4u);
}

TEST(CacheTest, DistinctSetsDoNotInterfere) {
  Cache cache(TinyCache());
  cache.Install(0);  // set 0
  cache.Install(1);  // set 1
  cache.Install(2);  // set 2
  cache.Install(3);  // set 3
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_FALSE(cache.Install(4));  // set 0's second way is still free
  EXPECT_TRUE(cache.Contains(0));
}

TEST(CacheTest, ResetClearsEverything) {
  Cache cache(TinyCache());
  cache.Install(1);
  cache.Lookup(1);
  cache.Reset();
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_FALSE(cache.Lookup(1));
}

// --- MemoryHierarchy -----------------------------------------------------------

HierarchyConfig TestHierarchy() {
  return MachineConfig::SmallTest().hierarchy;
}

TEST(HierarchyTest, ColdLoadGoesToDram) {
  MemoryHierarchy h(TestHierarchy());
  const AccessResult r = h.AccessLoad(0x1000, 0);
  EXPECT_EQ(r.level, HitLevel::kDram);
  EXPECT_EQ(r.latency_cycles, 200u);
  EXPECT_FALSE(r.hit_inflight);
}

TEST(HierarchyTest, SecondLoadHitsL1) {
  MemoryHierarchy h(TestHierarchy());
  h.AccessLoad(0x1000, 0);
  const AccessResult r = h.AccessLoad(0x1000, 300);
  EXPECT_EQ(r.level, HitLevel::kL1);
  EXPECT_EQ(r.latency_cycles, 4u);
}

TEST(HierarchyTest, SameLineDifferentOffsetHits) {
  MemoryHierarchy h(TestHierarchy());
  h.AccessLoad(0x1000, 0);
  EXPECT_EQ(h.AccessLoad(0x1038, 300).level, HitLevel::kL1);  // same 64B line
}

TEST(HierarchyTest, L1EvictionFallsBackToL2) {
  MemoryHierarchy h(TestHierarchy());  // L1: 1 KiB (16 lines), L2: 4 KiB
  // Touch 17 distinct lines mapping over the whole L1; line 0 gets evicted
  // from L1 eventually but stays in L2.
  for (uint64_t i = 0; i < 17; ++i) {
    h.AccessLoad(i * 64, i * 1000);
  }
  bool saw_l2 = false;
  for (uint64_t i = 0; i < 17; ++i) {
    const AccessResult r = h.AccessLoad(i * 64, 100'000 + i * 1000);
    saw_l2 |= r.level == HitLevel::kL2;
    EXPECT_NE(r.level, HitLevel::kDram);
  }
  EXPECT_TRUE(saw_l2);
}

TEST(HierarchyTest, PrefetchHidesLatency) {
  MemoryHierarchy h(TestHierarchy());
  EXPECT_TRUE(h.Prefetch(0x2000, 0));
  // Fill completes at cycle 200; a load at 300 pays only the L1 hit.
  const AccessResult r = h.AccessLoad(0x2000, 300);
  EXPECT_EQ(r.latency_cycles, 4u);
  EXPECT_EQ(h.stats().inflight_merges, 0u);  // drained before access
}

TEST(HierarchyTest, EarlyLoadMergesWithInflightFill) {
  MemoryHierarchy h(TestHierarchy());
  h.Prefetch(0x2000, 0);
  // Load at cycle 100: fill is half way (ready at 200) -> waits 100 + 4.
  const AccessResult r = h.AccessLoad(0x2000, 100);
  EXPECT_TRUE(r.hit_inflight);
  EXPECT_EQ(r.latency_cycles, 104u);
  EXPECT_EQ(h.stats().inflight_merges, 1u);
}

TEST(HierarchyTest, DuplicatePrefetchIsUseless) {
  MemoryHierarchy h(TestHierarchy());
  EXPECT_TRUE(h.Prefetch(0x2000, 0));
  EXPECT_FALSE(h.Prefetch(0x2000, 1));
  EXPECT_EQ(h.stats().prefetches_useless, 1u);
}

TEST(HierarchyTest, PrefetchOfCachedLineIsUseless) {
  MemoryHierarchy h(TestHierarchy());
  h.AccessLoad(0x2000, 0);
  EXPECT_FALSE(h.Prefetch(0x2000, 300));
  EXPECT_EQ(h.stats().prefetches_useless, 1u);
}

TEST(HierarchyTest, MshrCapacityDropsPrefetches) {
  HierarchyConfig config = TestHierarchy();
  config.mshr_entries = 2;
  MemoryHierarchy h(config);
  EXPECT_TRUE(h.Prefetch(0x10000, 0));
  EXPECT_TRUE(h.Prefetch(0x20000, 0));
  EXPECT_FALSE(h.Prefetch(0x30000, 0));
  EXPECT_EQ(h.stats().prefetches_dropped, 1u);
}

TEST(HierarchyTest, PrefetchFromL3IsFasterThanDram) {
  MemoryHierarchy h(TestHierarchy());
  // Load line 0, then push it out of L1 and L2 (but not the larger L3) by
  // streaming enough conflicting lines through. L2 set 0 holds lines
  // {0, 16, 32, 48, 64, 80}: 6 > 4 ways evicts line 0; L3 set 0 only sees
  // {0, 64} of these, so line 0 survives there.
  h.AccessLoad(0, 0);
  for (uint64_t i = 1; i <= 80; ++i) {
    h.AccessLoad(i * 64, i * 1000);
  }
  h.AccessLoad(80 * 64, 100'000);  // drain the last outstanding fill
  ASSERT_EQ(h.ProbeLevel(0), HitLevel::kL3);
  const uint64_t now = 1'000'000;
  h.Prefetch(0, now);
  // Fill from L3 takes 42 cycles: a load 50 cycles later pays the L1 hit.
  EXPECT_EQ(h.AccessLoad(0, now + 50).latency_cycles, 4u);
}

TEST(HierarchyTest, DrainInstallsFillsInCompletionOrder) {
  // SmallTest's L1 has 8 sets of 2 ways; these four lines share set 3. Their
  // fills complete at 200, 250, 300 and 300, and tie_high starts before
  // tie_low.
  MemoryHierarchy h(TestHierarchy());
  const uint64_t first = 3 + 8 * 40;
  const uint64_t second = 3 + 8 * 7;
  const uint64_t tie_low = 3 + 8 * 2;
  const uint64_t tie_high = 3 + 8 * 21;
  ASSERT_TRUE(h.Prefetch(first * 64, 0));
  ASSERT_TRUE(h.Prefetch(second * 64, 50));
  ASSERT_TRUE(h.Prefetch(tie_high * 64, 100));
  ASSERT_TRUE(h.Prefetch(tie_low * 64, 100));
  // One access drains all four: they install in (ready_cycle, line) order,
  // first, second, tie_low, tie_high, so the set keeps the tied pair with
  // tie_low as its LRU way.
  h.AccessLoad(4 * 64, 1000);
  ASSERT_EQ(h.inflight_fills(), 1u);  // the load's own miss, in set 4
  EXPECT_TRUE(h.l1().Contains(tie_low));
  EXPECT_TRUE(h.l1().Contains(tie_high));
  // A store miss installs without a fill and evicts tie_low.
  h.AccessStore((3 + 8 * 60) * 64, 1001);
  EXPECT_FALSE(h.l1().Contains(tie_low));
  EXPECT_TRUE(h.l1().Contains(tie_high));
  EXPECT_EQ(h.ProbeLevel(tie_low * 64), HitLevel::kL2);
}

TEST(HierarchyTest, ProbeLevelHasNoSideEffects) {
  MemoryHierarchy h(TestHierarchy());
  EXPECT_EQ(h.ProbeLevel(0x5000), HitLevel::kDram);
  EXPECT_EQ(h.stats().loads, 0u);
  h.AccessLoad(0x5000, 0);
  // The fill is in flight until it completes; a later access drains it.
  EXPECT_EQ(h.ProbeLevel(0x5000), HitLevel::kDram);
  h.AccessLoad(0x5000, 300);
  EXPECT_EQ(h.ProbeLevel(0x5000), HitLevel::kL1);
}

TEST(HierarchyTest, WouldHitFast) {
  MemoryHierarchy h(TestHierarchy());
  EXPECT_FALSE(h.WouldHitFast(0x5000, 0, 20));
  h.AccessLoad(0x5000, 0);            // fill in flight, ready at 200
  EXPECT_FALSE(h.WouldHitFast(0x5000, 10, 20));
  EXPECT_TRUE(h.WouldHitFast(0x5000, 250, 20));
  h.Prefetch(0x6000, 0);  // ready at 200
  EXPECT_FALSE(h.WouldHitFast(0x6000, 100, 20));
  EXPECT_TRUE(h.WouldHitFast(0x6000, 198, 20));
}

TEST(HierarchyTest, StoresDoNotStallButAllocate) {
  MemoryHierarchy h(TestHierarchy());
  EXPECT_FALSE(h.AccessStore(0x7000, 0));
  EXPECT_TRUE(h.AccessStore(0x7000, 10));
  EXPECT_EQ(h.AccessLoad(0x7000, 20).level, HitLevel::kL1);
}

TEST(HierarchyTest, NextLinePrefetcherDetectsStreams) {
  HierarchyConfig config = TestHierarchy();
  config.enable_nextline_prefetcher = true;
  MemoryHierarchy h(config);
  h.AccessLoad(0 * 64, 0);      // cold
  h.AccessLoad(1 * 64, 1000);   // sequential: triggers prefetch of line 2
  // Line 2 arrives by 1000+200; load at 2000 is an L1 hit.
  EXPECT_EQ(h.AccessLoad(2 * 64, 2000).latency_cycles, 4u);
}

TEST(HierarchyTest, NextLinePrefetcherOffByDefault) {
  MemoryHierarchy h(TestHierarchy());
  h.AccessLoad(0, 0);
  h.AccessLoad(64, 1000);
  // Nothing fetched line 2: the load goes to DRAM.
  EXPECT_EQ(h.AccessLoad(2 * 64, 2000).latency_cycles, 200u);
}

TEST(HierarchyTest, ResetRestoresColdState) {
  MemoryHierarchy h(TestHierarchy());
  h.AccessLoad(0x1000, 0);
  h.Reset();
  EXPECT_EQ(h.ProbeLevel(0x1000), HitLevel::kDram);
  EXPECT_EQ(h.stats().loads, 0u);
  EXPECT_EQ(h.inflight_fills(), 0u);
}

TEST(HierarchyTest, StatsLevelAccounting) {
  MemoryHierarchy h(TestHierarchy());
  h.AccessLoad(0x1000, 0);      // DRAM
  h.AccessLoad(0x1000, 1000);   // L1
  EXPECT_EQ(h.stats().loads, 2u);
  EXPECT_EQ(h.stats().dram_accesses, 1u);
  EXPECT_EQ(h.stats().l1_hits, 1u);
}

}  // namespace
}  // namespace yieldhide::sim
