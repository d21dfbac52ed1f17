// Drift scoring: how far has the live workload moved from the profile the
// current instrumentation was built from? (docs/ONLINE.md)
//
// Two complementary signals, matching the corruption/staleness modes
// src/faultinject synthesizes:
//
//   * APPEARANCE — the online profile shows hot missing loads at sites the
//     current binary does not instrument. Measured from the PMU: during
//     well-instrumented execution those are the only sites still exposing
//     stall evidence (hidden misses stop showing up as stalls).
//   * DIVERGENCE — sites the binary DOES instrument stopped earning their
//     yields. Measured from the runtime, not the PMU (a hidden miss leaves no
//     stall samples to compare): the scheduler's per-site useful fraction is
//     compared against the miss probability the reference profile promised.
//
// score = w_appearance * appearance + w_divergence * divergence, in [0, 1].
#ifndef YIELDHIDE_SRC_ADAPT_DRIFT_SCORE_H_
#define YIELDHIDE_SRC_ADAPT_DRIFT_SCORE_H_

#include <map>

#include "src/profile/profile.h"
#include "src/runtime/dual_mode.h"

namespace yieldhide::adapt {

// Signal weights of the combined score.
inline constexpr double kAppearanceWeight = 0.6;
inline constexpr double kDivergenceWeight = 0.4;

struct DriftScore {
  double appearance = 0.0;   // stall share on hot uninstrumented sites
  double divergence = 0.0;   // visit-weighted shortfall vs promised miss rate
  double score = 0.0;        // weighted combination, clamped to [0, 1]
  size_t new_hot_sites = 0;
  size_t diverged_sites = 0;
};

// `reference`: the load profile the current binary was instrumented from
// (original-binary addresses). `online`: the decayed online profile (same
// address space). `instrumented_sites`: original load site → yield address
// for the current binary (instrument::PrimaryYieldsByOriginalSite).
// `site_stats`: the scheduler's live quarantine accounting, keyed by yield
// address.
DriftScore ComputeDriftScore(
    const profile::LoadProfile& reference, const profile::LoadProfile& online,
    const std::map<isa::Addr, isa::Addr>& instrumented_sites,
    const std::map<isa::Addr, runtime::YieldSiteStats>& site_stats);

}  // namespace yieldhide::adapt

#endif  // YIELDHIDE_SRC_ADAPT_DRIFT_SCORE_H_
