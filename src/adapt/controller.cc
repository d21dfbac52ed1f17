#include "src/adapt/controller.h"

#include <algorithm>

namespace yieldhide::adapt {

namespace {
// Weight kept on the reference profile when merging in online evidence (the
// rest of the merged profile's mass comes from the online side). Retaining
// some reference keeps still-live sites instrumented even while the PMU no
// longer sees their misses (they are being hidden).
constexpr double kReferenceRetain = 0.35;
// Ceiling of the recommended scavenger-pool cap.
constexpr size_t kMaxScavengers = 16;
// Grow the cap when more than this fraction of bursts starved (ran out of
// runnable scavengers before the hide window was consumed).
constexpr double kGrowStarvedFraction = 0.05;
// Shrink it when bursts filled less than this fraction of the window.
constexpr double kShrinkOccupancy = 0.35;
}  // namespace

AdaptController::AdaptController(const isa::Program* original,
                                 core::PipelineArtifacts initial,
                                 const AdaptControllerConfig& config)
    : original_(original), config_(config) {
  PushGeneration(std::move(initial), /*built_epoch=*/0);
}

void AdaptController::PushGeneration(core::PipelineArtifacts artifacts,
                                     size_t built_epoch) {
  lineage_.push_back(
      std::make_unique<core::PipelineArtifacts>(std::move(artifacts)));
  auto generation = std::make_unique<BinaryGeneration>();
  generation->id = static_cast<int>(generations_.size());
  generation->built_epoch = built_epoch;
  generation->artifacts = lineage_.back().get();
  generation->reference_loads = lineage_.back()->profile.loads;
  const instrument::InstrumentedProgram& binary = lineage_.back()->binary;
  generation->site_index = instrument::PrimaryYieldsByOriginalSite(binary);
  generation->backmap =
      instrument::ReverseAddrMap(binary.addr_map, binary.program.size());
  generations_.push_back(std::move(generation));
  current_index_ = generations_.size() - 1;
}

void AdaptController::QuarantineGeneration(int id) {
  if (id < 0 || static_cast<size_t>(id) >= generations_.size()) {
    return;
  }
  if (!generations_[static_cast<size_t>(id)]->quarantined) {
    generations_[static_cast<size_t>(id)]->quarantined = true;
    ++quarantined_generations_;
  }
  // Revert the reference to the newest healthy generation; generation 0 (the
  // offline build) is never quarantined, so this always terminates.
  while (current_index_ > 0 && generations_[current_index_]->quarantined) {
    --current_index_;
  }
}

const profile::LoadProfile& AdaptController::reference_loads() const {
  return current_generation().reference_loads;
}

std::map<isa::Addr, runtime::YieldSiteStats> AdaptController::TranslateSiteStats(
    const std::map<isa::Addr, isa::Addr>& old_index,
    const std::map<isa::Addr, isa::Addr>& new_index,
    const std::map<isa::Addr, runtime::YieldSiteStats>& old_stats) {
  // Old yield address → original site → new yield address. Sites the target
  // binary no longer instruments drop out.
  std::map<isa::Addr, runtime::YieldSiteStats> carried;
  for (const auto& [original_site, old_yield] : old_index) {
    auto stats = old_stats.find(old_yield);
    if (stats == old_stats.end()) {
      continue;
    }
    auto new_yield = new_index.find(original_site);
    if (new_yield != new_index.end()) {
      carried[new_yield->second] = stats->second;
    }
  }
  return carried;
}

Result<AdaptController::SwapPlan> AdaptController::RebuildFromLoads(
    const profile::LoadProfile& online_loads,
    const std::map<isa::Addr, runtime::YieldSiteStats>& old_site_stats,
    const std::map<isa::Addr, isa::Addr>& old_site_index,
    size_t built_epoch) {
  // Merge: keep kReferenceRetain of the reference's mass and scale the
  // online evidence to supply the rest, so site selection is driven by what
  // production looks like NOW while still-instrumented live sites (whose
  // misses the PMU no longer sees, because they are hidden) keep enough
  // evidence to stay instrumented.
  profile::ProfileData merged;
  merged.loads = reference_loads();
  merged.loads.Decay(kReferenceRetain);
  const double reference_mass = reference_loads().TotalExecutions();
  const double online_mass = online_loads.TotalExecutions();
  profile::LoadProfile online_scaled = online_loads;
  if (online_mass > 0.0 && reference_mass > 0.0) {
    online_scaled.Decay((1.0 - kReferenceRetain) * reference_mass /
                        online_mass);
  }
  merged.loads.Merge(online_scaled);
  // Block structure is a property of the original binary's control flow and
  // the scavenger pass re-derives placements from it each rebuild; carry the
  // reference blocks forward (online LBR re-collection is an open item).
  merged.blocks = current_generation().artifacts->profile.blocks;

  YH_ASSIGN_OR_RETURN(
      core::PipelineArtifacts rebuilt,
      core::InstrumentFromProfile(*original_, std::move(merged),
                                  config_.pipeline));

  const std::map<isa::Addr, isa::Addr> new_index =
      instrument::PrimaryYieldsByOriginalSite(rebuilt.binary);
  SwapPlan plan;
  plan.carried_site_stats =
      TranslateSiteStats(old_site_index, new_index, old_site_stats);

  PushGeneration(std::move(rebuilt), built_epoch);
  plan.binary = &lineage_.back()->binary;
  return plan;
}

size_t AdaptController::RecommendPoolCap(const BurstDeltas& deltas,
                                         uint32_t hide_window_cycles,
                                         size_t current_cap) const {
  size_t cap = std::clamp(current_cap, kMinScavengers, kMaxScavengers);
  if (deltas.bursts == 0 || hide_window_cycles == 0) {
    return cap;
  }
  const double starved = static_cast<double>(deltas.bursts_starved) /
                         static_cast<double>(deltas.bursts);
  const double occupancy = runtime::BurstOccupancy(
      deltas.burst_busy_cycles, deltas.bursts, hide_window_cycles);
  if (starved > kGrowStarvedFraction) {
    // Starved bursts leave primary stalls exposed; add headroom fast.
    cap = std::min(kMaxScavengers, cap + 1 + cap / 2);
  } else if (occupancy < kShrinkOccupancy && cap > kMinScavengers) {
    // Bursts end early by choice (CYIELD handbacks), not supply: idle
    // capacity costs memory and cache pressure, so drain it slowly.
    cap = std::max(kMinScavengers, cap - 1);
  }
  return cap;
}

}  // namespace yieldhide::adapt
