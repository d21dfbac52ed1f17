// ServerGroup: multi-core sharded serving (docs/ONLINE.md).
//
// Owns N Shards (one simulated core each), one AdaptController holding the
// shared binary lineage, and one SharedProfileStore merging every shard's
// per-epoch sampling evidence under a single decayed view. Shards advance in
// lockstep group epochs; at each boundary the group collects drift scores and
// lets the StaggerPolicy pick AT MOST ONE shard to swap — rebuild storms
// where every core re-instruments the same drift at once cannot happen, and a
// freshly rebuilt generation is REUSED by later shards instead of paying
// InstrumentFromProfile N times for one workload change.
//
// Cross-run persistence: with a profile_path configured the merged store is
// serialized at shutdown and warm-starts the next run, which then begins on a
// binary rebuilt from day-1 evidence instead of the offline reference.
//
// One core is a group with shards = 1: unlabeled metric series, and a store
// that shadows the shard's local profile exactly. Programs build their groups
// through serve::Deployment, open loop behind per-shard front ends or closed
// loop over fixed task slices.
#ifndef YIELDHIDE_SRC_ADAPT_SERVER_GROUP_H_
#define YIELDHIDE_SRC_ADAPT_SERVER_GROUP_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/adapt/guard.h"
#include "src/adapt/profile_store.h"
#include "src/adapt/shard.h"
#include "src/faultinject/serving_faults.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"

namespace yieldhide::adapt {

// Cool-down: group epochs that must pass after a shard's swap before its
// next one, so the loop cannot thrash while fresh evidence is still
// accumulating.
inline constexpr int kMinEpochsBetweenSwaps = 2;

// Decides which shard (if any) swaps this group epoch. Per shard, a swap is
// eligible only when strictly more than kMinEpochsBetweenSwaps boundaries
// have passed since that shard's last install; on top of that cool-down,
// eligible shards queue FIFO and at most one dequeues per epoch, so no two
// shards ever rebuild or install in the same epoch.
class StaggerPolicy {
 public:
  explicit StaggerPolicy(size_t shard_count);

  // Advances every shard's cool-down clock and re-arms the one-per-epoch slot.
  void BeginEpoch();
  // Reports shard's appetite this epoch; enqueues it when it wants a swap,
  // is off cool-down, and is not already queued. Returns true if enqueued.
  bool Observe(size_t shard, bool wants_swap);
  // The (at most one) shard allowed to swap this epoch, FIFO across epochs —
  // a shard that lost the slot keeps its place in line.
  std::optional<size_t> TakeSwap();
  // The install on `shard` succeeded: restart its cool-down. Deliberately NOT
  // called on a failed rebuild, so the shard re-queues next epoch (the
  // single-server retry cadence).
  void MarkSwapped(size_t shard);
  // Shard finished serving: drop any queued request.
  void Withdraw(size_t shard);

  size_t pending() const { return queue_.size(); }

 private:
  std::vector<int> since_swap_;
  std::vector<bool> queued_;
  std::deque<size_t> queue_;
  bool took_this_epoch_ = false;
};

struct ServerGroupConfig {
  size_t shards = 1;
  // Per-shard serving configuration, embedded whole — the group adds no
  // duplicate copies of epoch length, drift thresholds, or sampling knobs.
  AdaptiveServerConfig shard;
  // Non-empty: serialize the merged store here at shutdown, and (with
  // warm_start) seed this run from the previous one's file if present.
  std::string profile_path;
  bool warm_start = true;
  // Guarded deployment (guard.h): canary + rollback, rebuild backoff, epoch
  // watchdog. Disabled by default — an unguarded group behaves exactly as
  // before this layer existed.
  GuardConfig guard;
  // Per-tenant drift isolation (multi-tenant QoS). 0.0 disables it: the
  // group is tenant-blind and behaves bit-identically to before tenants
  // existed. When > 0, each shard's per-tenant appearance scores fold into
  // the store's decayed per-tenant drift view; a BACKGROUND tenant whose
  // view crosses this threshold is QUARANTINED — its epoch evidence stops
  // feeding the store, and while any tenant is quarantined a shard's swap
  // appetite is judged on its max NON-quarantined tenant score instead of
  // the blended one, so an antagonist's phase change cannot trigger a
  // group-wide swap. The guard additionally vetoes promoting a canary that
  // pushed a foreground tenant with a declared budget over it.
  double tenant_drift_threshold = 0.0;
  // Chaos testing only: injected serving-layer faults (benches, `yhc serve
  // --fault`). Empty hooks in production.
  faultinject::ServingFaultHooks fault_hooks;

  // Single validation path for the CLI and the benches: named errors, first
  // failure wins. Delegates per-shard fields to AdaptiveServerConfig.
  Status Validate() const;
};

struct GroupReport {
  std::vector<AdaptReport> shards;  // indexed by shard id
  size_t group_epochs = 0;
  // Controller rebuilds (InstrumentFromProfile runs), including a warm-start
  // rebuild. The A2 gate compares this against N independent servers.
  int rebuilds = 0;
  int installs = 0;        // successful hot-swaps across all shards
  int reuse_installs = 0;  // installs that reused an existing generation
  bool warm_started = false;
  // (group epoch, shard) per successful install — the stagger audit trail.
  // Rollback re-installs appear here too: they occupy the epoch's one swap
  // slot like any other install.
  std::vector<std::pair<size_t, size_t>> swap_log;

  // Guard activity (empty when the guard is disabled). guard_log is the
  // decision audit trail benches assert exposure bounds against.
  int canaries = 0;
  int promotes = 0;
  int rollbacks = 0;
  int poison_blocked = 0;   // rebuilds skipped on a poisoned fingerprint
  int rebuild_retries = 0;  // failed rebuild attempts that scheduled backoff
  int watchdog_fires = 0;
  int store_fallbacks = 0;  // corrupt/truncated store files rejected at load
  int slo_vetoes = 0;       // healthy canaries rolled back on a burn alert
  int tenant_quarantines = 0;  // background tenants isolated for drift
  int tenant_vetoes = 0;    // promotions vetoed on a tenant budget regression
  std::vector<GuardEvent> guard_log;

  std::string Summary() const;
};

class ServerGroup {
 public:
  // `original` and every machine must outlive the group; `initial` is the
  // offline build all shards start serving. One machine per shard (validated
  // in Run()); each machine's data memory must already be initialized.
  ServerGroup(const isa::Program* original, core::PipelineArtifacts initial,
              std::vector<sim::Machine*> machines,
              const ServerGroupConfig& config);

  void AddTask(size_t shard, runtime::DualModeScheduler::ContextSetup setup);
  // Shared across shards; shard identity rides on metric labels (shard=<id>,
  // only when shards > 1) and trace ctx ids. Call before Run().
  void SetObservability(obs::TraceRecorder* trace,
                        obs::MetricsRegistry* metrics);
  void SetScavengerFactory(size_t shard,
                           runtime::DualModeScheduler::ScavengerFactory factory);
  void SetScavengerBinary(size_t shard,
                          const instrument::InstrumentedProgram* binary);
  // Open-loop serving: installs a per-shard request source (must outlive
  // Run()). A shard with a source polls it whenever its primary queue is
  // empty instead of relying on pre-loaded AddTask work; see
  // Shard::SetRequestSource. Call before Run().
  void SetRequestSource(size_t shard, RequestSource* source);
  // The observers of one shard (see ShardObservers). The group marks canary
  // confirmation windows on EVERY shard's span collector and reservoir as
  // control-plane interference (SpanClass::kFreeze; exemplars captured in
  // one carry control_window=true): the swap lane is frozen group-wide while
  // a canary is in flight. With GuardConfig::consult_slo the canary shard's
  // active SLO alert vetoes an otherwise-healthy promotion. Call before Run().
  void SetObservers(size_t shard, const ShardObservers& observers);

  // Serves every shard's queue to completion in lockstep group epochs,
  // staggering swaps (see file comment), then saves the store if configured.
  Result<GroupReport> Run();

  const AdaptController& controller() const { return controller_; }
  const SharedProfileStore& store() const { return store_; }

 private:
  const isa::Program* original_;
  std::vector<sim::Machine*> machines_;
  ServerGroupConfig config_;
  AdaptController controller_;
  SharedProfileStore store_;
  std::vector<std::deque<runtime::DualModeScheduler::ContextSetup>> tasks_;
  std::vector<runtime::DualModeScheduler::ScavengerFactory> factories_;
  std::vector<const instrument::InstrumentedProgram*> scavenger_binaries_;
  std::vector<RequestSource*> request_sources_;
  std::vector<ShardObservers> observers_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace yieldhide::adapt

#endif  // YIELDHIDE_SRC_ADAPT_SERVER_GROUP_H_
