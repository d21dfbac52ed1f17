// Tests for tail-based exemplar capture (src/obs/exemplar): the threshold-
// gated top-K retention, DETERMINISM UNDER TIES (equal latencies must resolve
// by request id, matching the offline sort exactly), rolling-window
// bookkeeping (eviction, out-of-order completion, late drops), the inherited
// exact-sum invariant, modeled overhead, and the two exports.
//
// The end-to-end wiring (SpanCollector::Finalize -> Offer, shard context
// stamping) is covered by bench_o4_diagnosis; here spans are fabricated so
// every retention decision is checked by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/exemplar/exemplar.h"
#include "src/obs/snapshot.h"
#include "src/obs/span/span.h"

namespace yieldhide::obs {
namespace {

// A completed span whose class vector trivially satisfies the exact-sum
// invariant: all latency in kExecPrimary.
RequestSpan MakeSpan(uint64_t id, uint64_t latency,
                     uint64_t complete = 1'000) {
  RequestSpan span;
  span.id = id;
  span.arrival_cycle = complete - latency;
  span.complete_cycle = complete;
  span.classes[static_cast<size_t>(SpanClass::kExecPrimary)] = latency;
  return span;
}

std::vector<uint64_t> RetainedIds(const ExemplarReservoir& reservoir) {
  std::vector<uint64_t> ids;
  for (const Exemplar& e : reservoir.Merged()) {
    ids.push_back(e.span.id);
  }
  return ids;
}

TEST(ExemplarConfigTest, ValidateNamesEachBadField) {
  EXPECT_TRUE(ExemplarReservoirConfig{}.Validate().ok());
  ExemplarReservoirConfig config;
  config.top_k = 0;
  EXPECT_NE(config.Validate().ToString().find("top_k"), std::string::npos);
  config = ExemplarReservoirConfig{};
  config.window_cycles = 0;
  EXPECT_NE(config.Validate().ToString().find("window_cycles"),
            std::string::npos);
}

TEST(ExemplarReservoirTest, OutranksBreaksLatencyTiesByIdAscending) {
  const RequestSpan slow = MakeSpan(9, 500);
  const RequestSpan low_id = MakeSpan(3, 400);
  const RequestSpan high_id = MakeSpan(7, 400);
  EXPECT_TRUE(ExemplarReservoir::Outranks(slow, low_id));
  EXPECT_TRUE(ExemplarReservoir::Outranks(low_id, high_id));
  EXPECT_FALSE(ExemplarReservoir::Outranks(high_id, low_id));
  // Irreflexive: a span never outranks itself (strict weak ordering).
  EXPECT_FALSE(ExemplarReservoir::Outranks(low_id, low_id));
}

TEST(ExemplarReservoirTest, RetainsTopKAndGatesTheRest) {
  ExemplarReservoirConfig config;
  config.top_k = 2;
  ExemplarReservoir reservoir(config);
  reservoir.Offer(MakeSpan(1, 100));
  reservoir.Offer(MakeSpan(2, 300));
  reservoir.Offer(MakeSpan(3, 200));  // evicts id 1 (latency 100)
  reservoir.Offer(MakeSpan(4, 50));   // rejected at the gate
  EXPECT_EQ(reservoir.offered(), 4u);
  EXPECT_EQ(reservoir.accepted(), 3u);
  EXPECT_EQ(reservoir.rejected(), 1u);
  const std::vector<uint64_t> ids = RetainedIds(reservoir);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 2u);  // 300
  EXPECT_EQ(ids[1], 3u);  // 200
}

TEST(ExemplarReservoirTest, TiedLatenciesRetainLowestIdsDeterministically) {
  // Six spans, ALL the same latency, offered in a scrambled id order. The
  // retained set must be the K lowest ids — the id tiebreak, not arrival
  // order or heap internals, decides — and Merged() must rank them id
  // ascending, matching what a full offline sort under Outranks would keep.
  ExemplarReservoirConfig config;
  config.top_k = 3;
  ExemplarReservoir reservoir(config);
  const std::vector<uint64_t> arrival_order = {5, 2, 9, 1, 7, 4};
  for (const uint64_t id : arrival_order) {
    reservoir.Offer(MakeSpan(id, 250));
  }
  const std::vector<uint64_t> ids = RetainedIds(reservoir);
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 4}));
  // A tied candidate that does not beat the worst retained id is a gate
  // rejection: id 6 loses to retained id 4 on the tiebreak.
  reservoir.Offer(MakeSpan(6, 250));
  EXPECT_EQ(RetainedIds(reservoir), (std::vector<uint64_t>{1, 2, 4}));
  // A tied candidate with a lower id than the worst retained one displaces
  // exactly that worst entry.
  reservoir.Offer(MakeSpan(3, 250));
  EXPECT_EQ(RetainedIds(reservoir), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(ExemplarReservoirTest, RetainedSetMatchesOfflineSortUnderTies) {
  // The O4 gate's property in miniature: for a mixed stream with duplicate
  // latencies, the reservoir's per-window retained set equals the top-K
  // prefix of a full offline sort of EVERYTHING offered.
  ExemplarReservoirConfig config;
  config.top_k = 4;
  config.window_cycles = 1'000;
  ExemplarReservoir reservoir(config);
  std::vector<RequestSpan> all;
  // Window 0: ids 10..21 with latencies cycling {60, 80, 80, 40}.
  const uint64_t latencies[] = {60, 80, 80, 40};
  for (uint64_t i = 0; i < 12; ++i) {
    all.push_back(MakeSpan(10 + i, latencies[i % 4], /*complete=*/500));
  }
  for (const RequestSpan& span : all) {
    reservoir.Offer(span);
  }
  std::sort(all.begin(), all.end(), ExemplarReservoir::Outranks);
  ASSERT_EQ(reservoir.windows().size(), 1u);
  const std::vector<Exemplar> retained =
      ExemplarReservoir::Sorted(reservoir.windows().front());
  ASSERT_EQ(retained.size(), 4u);
  for (size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i].span.id, all[i].id) << i;
    EXPECT_EQ(retained[i].span.latency(), all[i].latency()) << i;
  }
  // Offline top-4 is 80@11, 80@12, 80@15, 80@16: ties everywhere, ids decide.
  EXPECT_EQ(retained[0].span.id, 11u);
  EXPECT_EQ(retained[3].span.id, 16u);
}

TEST(ExemplarReservoirTest, WindowsRollEvictOldestAndDropLateArrivals) {
  ExemplarReservoirConfig config;
  config.top_k = 1;
  config.window_cycles = 100;
  ExemplarReservoir reservoir(config);
  // One exemplar in each of windows 0..kExemplarMaxWindows: the last evicts 0.
  for (uint64_t w = 0; w <= kExemplarMaxWindows; ++w) {
    reservoir.Offer(MakeSpan(100 + w, 10, /*complete=*/w * 100 + 50));
  }
  EXPECT_EQ(reservoir.windows().size(), kExemplarMaxWindows);
  EXPECT_EQ(reservoir.evicted_windows(), 1u);
  EXPECT_EQ(reservoir.windows().front().ordinal, 1u);
  // A completion for the evicted window 0 is a late drop, not a crash.
  reservoir.Offer(MakeSpan(4, 10, /*complete=*/60));
  EXPECT_EQ(reservoir.late_drops(), 1u);
  // An out-of-order completion into a RETAINED window still lands.
  reservoir.Offer(MakeSpan(5, 20, /*complete=*/160));  // window 1, beats id 101
  const std::vector<uint64_t> ids = RetainedIds(reservoir);
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 5u) != ids.end());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 4u) == ids.end());
}

TEST(ExemplarReservoirTest, ContextIsStampedAtOfferTime) {
  ExemplarReservoir reservoir;
  reservoir.SetContext(/*generation_id=*/2, /*epoch=*/7, /*quarantined=*/true);
  reservoir.BeginControlWindow();
  reservoir.Offer(MakeSpan(1, 100));
  reservoir.EndControlWindow();
  reservoir.SetContext(3, 8, false);
  reservoir.Offer(MakeSpan(2, 100));
  const std::vector<Exemplar> merged = reservoir.Merged();
  ASSERT_EQ(merged.size(), 2u);
  // Merged ranks by (latency, id): id 1 first.
  EXPECT_EQ(merged[0].context.generation_id, 2);
  EXPECT_EQ(merged[0].context.epoch, 7u);
  EXPECT_TRUE(merged[0].context.quarantined);
  EXPECT_TRUE(merged[0].context.control_window);
  EXPECT_EQ(merged[1].context.generation_id, 3);
  EXPECT_FALSE(merged[1].context.control_window);
}

TEST(ExemplarReservoirTest, VerifyExactnessCatchesABrokenClassSum) {
  ExemplarReservoir reservoir;
  reservoir.Offer(MakeSpan(1, 100));
  EXPECT_TRUE(reservoir.VerifyExactness().ok());
  RequestSpan broken = MakeSpan(2, 100);
  broken.classes[static_cast<size_t>(SpanClass::kExecPrimary)] = 99;
  reservoir.Offer(broken);
  const Status status = reservoir.VerifyExactness();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("sum to 99"), std::string::npos)
      << status.ToString();
}

TEST(ExemplarReservoirTest, DisabledReservoirRetainsAndChargesNothing) {
  ExemplarReservoirConfig config;
  config.enabled = false;
  ExemplarReservoir reservoir(config);
  for (uint64_t i = 0; i < 10; ++i) {
    reservoir.Offer(MakeSpan(i, 1'000));
  }
  EXPECT_EQ(reservoir.offered(), 0u);
  EXPECT_TRUE(reservoir.windows().empty());
  EXPECT_EQ(reservoir.TakeUnchargedOverheadCycles(), 0u);
}

TEST(ExemplarReservoirTest, OverheadIsPerAcceptedInsertionAndDrainsOnce) {
  ExemplarReservoirConfig config;
  config.top_k = 1;
  ExemplarReservoir reservoir(config);
  reservoir.Offer(MakeSpan(1, 100));  // accepted
  reservoir.Offer(MakeSpan(2, 50));   // gate-rejected: modeled as free
  reservoir.Offer(MakeSpan(3, 200));  // accepted (displaces 1)
  EXPECT_EQ(reservoir.TakeUnchargedOverheadCycles(),
            2 * kExemplarInsertCostCycles);
  EXPECT_EQ(reservoir.TakeUnchargedOverheadCycles(), 0u);
}

TEST(ExemplarExportTest, PerfettoLaysClassesEndToEndWithNoGap) {
  ExemplarReservoir reservoir;
  RequestSpan span = MakeSpan(7, 100, /*complete=*/300);
  // Split the latency across two classes; the slices must tile
  // [arrival, complete] in enum order.
  span.classes[static_cast<size_t>(SpanClass::kExecPrimary)] = 60;
  span.classes[static_cast<size_t>(SpanClass::kStallExposed)] = 40;
  reservoir.Offer(span);
  const std::vector<const ExemplarReservoir*> shards = {&reservoir};
  const std::string json = ToPerfettoExemplarJson(shards, /*cycles_per_ns=*/1.0);
  EXPECT_TRUE(ValidateJson(json).ok()) << ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"exemplars\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exec_primary\""), std::string::npos);
  EXPECT_NE(json.find("\"stall_exposed\""), std::string::npos);
  // arrival = 200 cycles = 0.200us; the stall slice starts at 260 = 0.260us.
  EXPECT_NE(json.find("\"ts\": 0.200"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 0.260"), std::string::npos);
}

}  // namespace
}  // namespace yieldhide::obs
