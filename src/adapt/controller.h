// AdaptController: the rebuild side of the online adaptation loop
// (docs/ONLINE.md). Owns the lineage of instrumented binaries, rebuilds
// against the ORIGINAL binary with the merged (reference + online) profile,
// translates quarantine state across the swap, and runs the
// hide-window-occupancy feedback loop that sizes the scavenger pool —
// replacing the static DualModeConfig::max_scavengers cap. Shards score
// drift and ServerGroup's StaggerPolicy decides when a shard swaps.
#ifndef YIELDHIDE_SRC_ADAPT_CONTROLLER_H_
#define YIELDHIDE_SRC_ADAPT_CONTROLLER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/pipeline.h"
#include "src/instrument/backmap.h"
#include "src/runtime/dual_mode.h"

namespace yieldhide::adapt {

// Floor of the scavenger-pool cap the occupancy feedback recommends; an
// adaptive shard's pool starts there.
inline constexpr size_t kMinScavengers = 1;

struct AdaptControllerConfig {
  // Step-(ii) configuration used for every rebuild. Finalize() it first.
  core::PipelineConfig pipeline;
  // A shard asks for a swap when its drift score reaches this.
  double drift_threshold = 0.25;
};

// One entry in the lineage of served binaries, with everything a shard needs
// to run against it: the sampling back-map, the original-site → yield index
// drift scoring and quarantine translation key on, and the reference profile
// the binary was instrumented from. In a ServerGroup different shards may run
// different (older) generations between staggered swaps, so this metadata
// travels with the binary instead of living in one global "current" slot.
struct BinaryGeneration {
  int id = 0;                // 0 = the initial offline artifacts
  size_t built_epoch = 0;    // group epoch the rebuild happened in
  // Rolled back by the guard: never reused by other shards and never the
  // controller's reference again (the lineage entry itself stays alive so
  // in-flight schedulers cannot dangle).
  bool quarantined = false;
  const core::PipelineArtifacts* artifacts = nullptr;
  profile::LoadProfile reference_loads;
  // Original load site → covering primary-yield address in this binary.
  std::map<isa::Addr, isa::Addr> site_index;
  instrument::ReverseAddrMap backmap;

  const instrument::InstrumentedProgram& binary() const {
    return artifacts->binary;
  }
};

class AdaptController {
 public:
  // The new binary plus the quarantine table translated to its addresses.
  // `binary` stays owned by the controller and lives until it is destroyed
  // (old binaries are kept so an in-flight scheduler can never dangle).
  struct SwapPlan {
    const instrument::InstrumentedProgram* binary = nullptr;
    std::map<isa::Addr, runtime::YieldSiteStats> carried_site_stats;
  };

  // `original` must outlive the controller. `initial` is the offline
  // step-(i)+(ii) result currently serving; its profile becomes the first
  // reference the drift score compares against.
  AdaptController(const isa::Program* original, core::PipelineArtifacts initial,
                  const AdaptControllerConfig& config);

  // Original load site → covering primary-yield address, current binary.
  const std::map<isa::Addr, isa::Addr>& site_index() const {
    return current_generation().site_index;
  }
  const instrument::ReverseAddrMap& backmap() const {
    return current_generation().backmap;
  }
  const profile::LoadProfile& reference_loads() const;

  // The lineage as generations: generation(0) is the initial offline build,
  // the highest id the newest. References stay valid for the controller's
  // lifetime (old binaries are never freed).
  const BinaryGeneration& generation(size_t id) const {
    return *generations_[id];
  }
  // The generation currently anchoring drift scoring and rebuild merges.
  // Normally the newest; after a guard rollback it reverts to the newest
  // NON-quarantined generation, so the next rebuild is not anchored on the
  // reference profile of a binary that just regressed.
  const BinaryGeneration& current_generation() const {
    return *generations_[current_index_];
  }

  // --- guard support ---------------------------------------------------------
  // Rollback bookkeeping: marks generation `id` quarantined and reverts the
  // controller's reference to the newest healthy generation. (ServerGroup
  // blocks rebuilds from the rolled-back generation's evidence itself.)
  void QuarantineGeneration(int id);
  int quarantined_generations() const { return quarantined_generations_; }

  // Re-instruments the original binary from the merged reference + online
  // profile and advances the controller's reference to it. `online_loads` is
  // any merged evidence source (a shard's local profile, or the group's
  // SharedProfileStore), and `old_site_index` identifies the generation whose
  // quarantine table `old_site_stats` is keyed in — in a group that is the
  // SWAPPING shard's generation, not necessarily the controller's newest.
  // `old_site_stats` is translated through original-site identity onto the
  // new binary's yield addresses, so quarantine survives for surviving sites.
  // `built_epoch` is stamped on the new generation for the reuse-window
  // policy.
  Result<SwapPlan> RebuildFromLoads(
      const profile::LoadProfile& online_loads,
      const std::map<isa::Addr, runtime::YieldSiteStats>& old_site_stats,
      const std::map<isa::Addr, isa::Addr>& old_site_index,
      size_t built_epoch);

  // Quarantine carry-over: re-keys `old_stats` (yield addresses under
  // `old_index`'s binary) through original-site identity onto the binary
  // `new_index` describes. Sites the target binary does not instrument drop
  // out. Used by every swap — rebuilds and generation reuses alike.
  static std::map<isa::Addr, runtime::YieldSiteStats> TranslateSiteStats(
      const std::map<isa::Addr, isa::Addr>& old_index,
      const std::map<isa::Addr, isa::Addr>& new_index,
      const std::map<isa::Addr, runtime::YieldSiteStats>& old_stats);

  // Hide-window-occupancy feedback: the recommended pool cap given this
  // epoch's burst deltas. Grows on starvation, shrinks on slack, and never
  // leaves [kMinScavengers, a fixed ceiling].
  struct BurstDeltas {
    uint64_t bursts = 0;
    uint64_t bursts_starved = 0;
    uint64_t burst_busy_cycles = 0;
  };
  size_t RecommendPoolCap(const BurstDeltas& deltas, uint32_t hide_window_cycles,
                          size_t current_cap) const;

 private:
  // Wraps freshly built artifacts into the lineage + generation tables.
  void PushGeneration(core::PipelineArtifacts artifacts, size_t built_epoch);

  const isa::Program* original_;
  AdaptControllerConfig config_;
  // Every binary ever served, oldest first; the last entry is current.
  std::vector<std::unique_ptr<core::PipelineArtifacts>> lineage_;
  // Generation metadata parallel to lineage_ (unique_ptr so references handed
  // to shards stay stable as the vector grows).
  std::vector<std::unique_ptr<BinaryGeneration>> generations_;
  // Index of the reference generation in generations_ (see
  // current_generation()).
  size_t current_index_ = 0;
  int quarantined_generations_ = 0;
};

}  // namespace yieldhide::adapt

#endif  // YIELDHIDE_SRC_ADAPT_CONTROLLER_H_
