#include "src/adapt/drift_score.h"

#include <algorithm>

namespace yieldhide::adapt {

namespace {
// Appearance: a site counts as "new and hot" when its online L2-miss
// probability and share of online stall evidence both clear these bars.
constexpr double kHotMissProbability = 0.3;
constexpr double kHotStallShare = 0.05;
// Ignore appearance entirely while the online profile has fewer estimated
// stall cycles than this — adapting to noise is worse than waiting.
constexpr double kMinTotalStallCycles = 1000.0;
// Divergence: only sites visited this often have a trustworthy useful
// fraction.
constexpr uint64_t kMinSiteVisits = 8;
}  // namespace

DriftScore ComputeDriftScore(
    const profile::LoadProfile& reference, const profile::LoadProfile& online,
    const std::map<isa::Addr, isa::Addr>& instrumented_sites,
    const std::map<isa::Addr, runtime::YieldSiteStats>& site_stats) {
  DriftScore result;

  // Appearance: stall evidence piling up outside the instrumented set.
  const double total_stall = online.total_stall_cycles();
  if (total_stall >= kMinTotalStallCycles) {
    for (const auto& [ip, site] : online.sites()) {
      if (instrumented_sites.count(ip) != 0) {
        continue;
      }
      const double share = site.est_stall_cycles / total_stall;
      if (site.L2MissProbability() >= kHotMissProbability &&
          share >= kHotStallShare) {
        result.appearance += share;
        ++result.new_hot_sites;
      }
    }
  }

  // Divergence: instrumented sites whose yields stopped being useful,
  // weighted by how hard the reference profile promised they would miss.
  uint64_t total_visits = 0;
  double weighted_shortfall = 0.0;
  for (const auto& [original, yield_addr] : instrumented_sites) {
    auto it = site_stats.find(yield_addr);
    if (it == site_stats.end() || it->second.visits < kMinSiteVisits) {
      continue;
    }
    const runtime::YieldSiteStats& stats = it->second;
    const double observed_useful =
        static_cast<double>(stats.useful) / static_cast<double>(stats.visits);
    const double promised =
        std::min(1.0, reference.ForIp(original).L2MissProbability());
    const double shortfall = std::max(0.0, promised - observed_useful);
    weighted_shortfall += shortfall * static_cast<double>(stats.visits);
    total_visits += stats.visits;
    if (shortfall > 0.0) {
      ++result.diverged_sites;
    }
  }
  if (total_visits > 0) {
    result.divergence = weighted_shortfall / static_cast<double>(total_visits);
  }

  result.score = std::clamp(kAppearanceWeight * result.appearance +
                                kDivergenceWeight * result.divergence,
                            0.0, 1.0);
  return result;
}

}  // namespace yieldhide::adapt
