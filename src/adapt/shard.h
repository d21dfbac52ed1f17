// Shard: one simulated core of the sharded serving layer (docs/ONLINE.md).
//
// Owns everything per-core about the adaptation loop: the DualModeScheduler,
// the low-period sampling session (with drift-aware rate scaling), the local
// exponentially-decayed OnlineProfile, per-epoch telemetry, the
// pool-occupancy feedback, and the per-shard metric/trace surface. What it
// does NOT own is the swap decision: the shard reports its drift score each
// epoch and the ServerGroup decides — staggered across shards — when to
// rebuild and which generation to install. One core is a ServerGroup with
// one shard.
//
// An epoch boundary is driven in three steps so the group can sit in the
// middle (all at the same scheduler safe point, no task in flight):
//
//   1. RunEpochTasks()      — serve tasks_per_epoch tasks, charge sampling
//                             overhead, fold samples (local + shared-store
//                             evidence), score drift;
//   2. [group: maybe InstallGeneration()];
//   3. FinishEpochBoundary() — pool feedback, sampling rescale, metrics,
//                             epoch snapshot.
#ifndef YIELDHIDE_SRC_ADAPT_SHARD_H_
#define YIELDHIDE_SRC_ADAPT_SHARD_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/adapt/controller.h"
#include "src/adapt/online_profile.h"
#include "src/adapt/request_source.h"
#include "src/obs/exemplar/exemplar.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"
#include "src/pmu/session.h"
#include "src/profile/collector.h"
#include "src/runtime/dual_mode.h"

namespace yieldhide::adapt {

// Production sampling defaults: periods several times the offline
// collector's, LBR off — cheap enough to leave on forever (~1-2% modeled
// overhead on miss-heavy phases).
profile::CollectorConfig LowOverheadSamplingConfig();

struct AdaptiveServerConfig {
  AdaptControllerConfig controller;
  OnlineProfileConfig online;
  profile::CollectorConfig sampling = LowOverheadSamplingConfig();
  runtime::DualModeConfig dual;
  // Epoch length; boundaries are the only points where swaps can happen.
  int tasks_per_epoch = 8;
  // false = control mode: sample and score drift, never rebuild or swap.
  bool adapt_enabled = true;
  // Run the occupancy feedback loop (vs. keeping dual.max_scavengers fixed).
  bool scale_pool = true;
  // Charge the modeled PEBS capture cost to the machine clock.
  bool charge_sampling_overhead = true;
  // Drift-aware sampling: scale the sampling RATE with measured drift —
  // sample harder while the workload is moving (fresher evidence, faster
  // reaction), relax below the baseline after consecutive quiet epochs to
  // shave steady-state overhead. Periods are the configured periods divided
  // by the epoch's rate scale, which steps through {min_rate_scale, 1,
  // max_rate_scale/2, max_rate_scale} as drift crosses fractions of the swap
  // threshold, and resets to 1 after a swap (the reference is fresh, so old
  // drift evidence is stale). Off by default: the fixed-period configuration
  // is the control the A1 gates were calibrated against.
  bool drift_aware_sampling = false;
  // Rate-scale bounds: <1 = slower than baseline (quiet), >1 = faster (drifting).
  double sampling_min_rate_scale = 0.5;
  double sampling_max_rate_scale = 4.0;
  // Consecutive epochs below 5% of the drift threshold before relaxing to
  // sampling_min_rate_scale.
  int sampling_quiet_epochs = 2;

  // Named-field validation shared by the CLI, the benches, and
  // ServerGroupConfig::Validate().
  Status Validate() const;
};

struct EpochTelemetry {
  size_t epoch = 0;           // 0-based
  size_t tasks_completed = 0;  // cumulative at epoch end
  uint64_t cycles = 0;         // machine cycles this epoch (incl. sampling)
  double efficiency = 0.0;     // issue/total over this epoch (retired work)
  double drift = 0.0;
  // Drift components (drift = weighted combination, see drift_score.h). The
  // Zipf-mix A2 scenario gates on appearance staying at zero while
  // divergence carries the whole signal.
  double drift_appearance = 0.0;
  double drift_divergence = 0.0;
  bool swapped = false;
  size_t pool_cap = 0;
  double burst_occupancy = 0.0;
  uint64_t sampling_overhead_cycles = 0;
  // Sampling rate multiplier in force DURING this epoch (1.0 = configured
  // periods; see AdaptiveServerConfig::drift_aware_sampling).
  double sampling_rate_scale = 1.0;
  // The binary generation that SERVED this epoch (stamped before any swap at
  // the boundary). `yhc why --generation G1,G2` maps generations to epoch
  // windows through this field.
  int generation_id = -1;
};

struct AdaptReport {
  runtime::DualModeReport run;  // cumulative, from the scheduler
  std::vector<EpochTelemetry> epochs;
  int swaps = 0;
  int swap_failures = 0;  // rebuilds that failed; serving continued degraded
  uint64_t samples_accepted = 0;
  uint64_t samples_dropped = 0;
  uint64_t sampling_overhead_cycles = 0;
  double final_drift = 0.0;

  std::string Summary() const;
};

class Shard {
 public:
  // One tenant's slice of an epoch's drift evidence. Scores are
  // APPEARANCE-ONLY (scored against an empty site-stats table): divergence
  // compares the scheduler's per-site yield verdicts to promised miss rates,
  // and yield sites are shared by every tenant's requests — it cannot be
  // attributed to one tenant. Appearance (hot uninstrumented sites) can,
  // because the attribution timeline maps every primary-context PMU sample
  // to the tenant whose request held the primary slot when it fired.
  struct TenantEpochEvidence {
    std::string name;
    bool background = false;
    DriftScore score;
    // This tenant's raw back-mapped samples (undecayed), so the group can
    // EXCLUDE a quarantined tenant's evidence from the shared store.
    profile::LoadProfile evidence;
  };

  struct EpochOutcome {
    // True when a full tasks_per_epoch epoch completed and `score` is valid.
    // False means the queue ran dry mid-epoch — the shard is done serving
    // and any trailing partial epoch is flushed (telemetry-only) by Finish().
    bool boundary = false;
    DriftScore score;
    // Per-tenant attribution, in the source's Tenants() order. Empty unless
    // the request source serves more than one tenant.
    std::vector<TenantEpochEvidence> tenants;
    // Primary samples outside any attribution episode (e.g. fired while the
    // event loop charged pipeline stages): tenant-less but still real
    // evidence — contributed to the store even under quarantine.
    profile::LoadProfile unattributed_evidence;
  };

  // `generation` is the binary this shard starts serving (it may lag the
  // controller's newest between staggered swaps). `labels` is appended to
  // every metric the shard and its scheduler publish — {{"shard", "<id>"}}
  // in a multi-shard group, empty for the N=1 facade so existing unlabeled
  // series stay intact. The sampling session attaches to `machine` here and
  // detaches at Finish() (or destruction).
  Shard(size_t id, sim::Machine* machine, const AdaptiveServerConfig& config,
        const BinaryGeneration* generation,
        const instrument::InstrumentedProgram* scavenger_binary,
        runtime::DualModeScheduler::ScavengerFactory factory,
        std::deque<runtime::DualModeScheduler::ContextSetup> tasks,
        obs::TraceRecorder* trace, obs::MetricsRegistry* metrics,
        obs::CycleProfiler* profiler, obs::Labels labels);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Step 1 of the epoch boundary (see file comment). `epoch_evidence`, when
  // non-null, receives this epoch's raw back-mapped samples for the shared
  // store. `adapting` false = telemetry-only (control mode tail).
  Result<EpochOutcome> RunEpochTasks(bool adapting,
                                     profile::LoadProfile* epoch_evidence);

  // Wires request-scoped span attribution into this shard's scheduler (the
  // front end feeds the same collector its admission/harvest transitions).
  // The shard keeps the pointer so FinishEpochBoundary can snapshot
  // per-epoch span-class slices next to the profiler's.
  void SetSpanCollector(obs::SpanCollector* spans) {
    spans_ = spans;
    scheduler_->SetSpanCollector(spans);
  }

  // Tail-exemplar capture: the shard pushes scheduler context (serving
  // generation, epoch ordinal, quarantine state) into the reservoir at every
  // boundary and install, so each retained exemplar is stamped with the
  // control-plane state in force when it completed. The reservoir itself is
  // fed by the SpanCollector (SetExemplars), not by the shard.
  void SetExemplarReservoir(obs::ExemplarReservoir* exemplars) {
    exemplar_ = exemplars;
    if (exemplar_ != nullptr && generation_ != nullptr) {
      exemplar_->SetContext(generation_->id, report_.epochs.size(),
                            generation_->quarantined);
    }
  }

  // Installs the open-loop request source (must outlive the shard) and wires
  // the scheduler's scavenger lifecycle hooks to it. With a source installed
  // the epoch loop polls it whenever the primary queue runs empty; the
  // source exhausting mid-epoch ends the shard's run exactly like a drained
  // task deque. Call before the first RunEpochTasks.
  void SetRequestSource(RequestSource* source);

  // Records the kSwapBegin trace event with this epoch's drift score; the
  // group calls it before attempting the rebuild, mirroring the pre-split
  // event order (swap-begin precedes the rebuild that may fail).
  void TraceSwapBegin();
  // The group's rebuild for this shard failed; serving continues on the
  // current generation — degraded, not down.
  void OnRebuildFailed();
  // Step 2: hot-swap this shard onto `generation`. `carried_site_stats` is
  // the quarantine table already translated to the new binary's addresses
  // (AdaptController::TranslateSiteStats / SwapPlan::carried_site_stats).
  Status InstallGeneration(const BinaryGeneration* generation,
                           std::map<isa::Addr, runtime::YieldSiteStats>
                               carried_site_stats);

  // Step 3 of the epoch boundary: pool feedback, drift-aware sampling
  // rescale, metric publication, epoch snapshot. `controller` provides the
  // (stateless) pool-cap recommendation.
  void FinishEpochBoundary(bool adapting, const AdaptController& controller);

  // Ends the run: scheduler Finalize, session detach, trailing partial-epoch
  // flush, and the assembled per-shard report.
  Result<AdaptReport> Finish(const AdaptController& controller);

  size_t id() const { return id_; }
  size_t pending_tasks() const { return scheduler_->pending_tasks(); }
  const BinaryGeneration* generation() const { return generation_; }
  // The scheduler's live quarantine table (keyed by yield address in this
  // shard's CURRENT binary) — input to quarantine carry-over on swaps.
  const std::map<isa::Addr, runtime::YieldSiteStats>& site_stats() const {
    return scheduler_->progress().site_stats;
  }

 private:
  profile::CollectorConfig ScaledSampling(double rate_scale) const;
  std::unique_ptr<pmu::SamplingSession> MakeSession(
      const profile::CollectorConfig& sampling) const;
  // Steps 1b-1d at the safe point: charge overhead, fold samples, score.
  void OpenBoundary(bool adapting, profile::LoadProfile* epoch_evidence);

  // Per-tenant fold of the epoch's drained samples (multi-tenant sources
  // only); fills tenant_epoch_ / unattributed_epoch_ for RunEpochTasks.
  void FoldTenantSamples(const std::vector<pmu::PebsSample>& samples);

  const size_t id_;
  sim::Machine* machine_;
  AdaptiveServerConfig config_;
  runtime::DualModeConfig dual_;  // resolved copy (pool-scaling overrides)
  const BinaryGeneration* generation_;
  bool shared_binary_;  // scavengers run the primary binary and swap with it
  std::unique_ptr<runtime::DualModeScheduler> scheduler_;
  OnlineProfile online_;
  obs::TraceRecorder* trace_;
  obs::MetricsRegistry* metrics_;
  obs::CycleProfiler* profiler_ = nullptr;
  obs::SpanCollector* spans_ = nullptr;
  obs::ExemplarReservoir* exemplar_ = nullptr;
  obs::Labels labels_;
  RequestSource* request_source_ = nullptr;
  // Per-tenant decayed evidence (parallel to the source's Tenants() order;
  // sized lazily at the first multi-tenant boundary).
  std::vector<OnlineProfile> tenant_online_;
  std::vector<TenantEpochEvidence> tenant_epoch_;
  profile::LoadProfile unattributed_epoch_;

  double rate_scale_ = 1.0;
  int quiet_epochs_ = 0;
  std::unique_ptr<pmu::SamplingSession> session_;
  bool session_attached_ = false;
  profile::SamplePeriods periods_;
  uint64_t epoch_start_ = 0;
  // Overhead of sessions already replaced by a period rescale; the live
  // session's OverheadCycles() adds to this.
  uint64_t overhead_base_ = 0;
  uint64_t charged_overhead_ = 0;
  uint64_t last_issue_ = 0;
  uint64_t last_bursts_ = 0, last_starved_ = 0, last_busy_ = 0;
  Status swap_status_ = Status::Ok();

  AdaptReport report_;
  EpochTelemetry epoch_;  // the boundary currently open (steps 1-3)
  AdaptController::BurstDeltas deltas_;
};

}  // namespace yieldhide::adapt

#endif  // YIELDHIDE_SRC_ADAPT_SHARD_H_
