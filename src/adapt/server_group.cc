#include "src/adapt/server_group.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/obs/labels.h"

namespace yieldhide::adapt {

namespace {
// Share of the persisted profile's mass supplied by the serving generation's
// reference (vs the store's raw recent tail) at shutdown.
constexpr double kPersistReferenceShare = 0.65;
// A generation newer than a swapping shard's is reused (no rebuild) if it was
// built at most this many group epochs ago; older ones are considered stale
// and the shard rebuilds from the current store instead.
constexpr size_t kGenerationReuseEpochs = 8;
// Guarded rebuild retry-with-backoff: the first retry waits this many group
// epochs, doubling per consecutive failure up to kMaxBackoffEpochs.
constexpr int kRetryBackoffEpochs = 2;
constexpr int kMaxBackoffEpochs = 16;
// After this many consecutive failures on the SAME evidence fingerprint the
// fingerprint is poisoned: no more attempts until the evidence changes.
constexpr int kMaxRebuildRetries = 4;
// Epoch watchdog: a shard whose epoch runs longer than this multiple of the
// group median is considered stalled and sheds its swap-queue slot.
constexpr double kWatchdogFactor = 4.0;
// How long a rolled-back generation's evidence fingerprint blocks rebuilds.
// The lineage's quarantine record is permanent; the rebuild BLOCK expires so
// a transient environmental regression (a stalled canary shard, a cleared
// fault) cannot lock a static workload out of adaptation forever.
constexpr size_t kPoisonTtlEpochs = 16;
// Group epochs a tenant quarantine lasts (mirrors kPoisonTtlEpochs).
constexpr uint64_t kTenantQuarantineTtlEpochs = 16;

// Merges the hidden latency of every site `profiler` recorded into `merged`
// (nothing when no profiler is attached).
void MergeHiddenLatency(const obs::CycleProfiler* profiler,
                        LatencyHistogram* merged) {
  if (profiler == nullptr) {
    return;
  }
  for (const auto& [site, cycles] : profiler->sites()) {
    merged->Merge(cycles.hidden_latency);
  }
}
}  // namespace

StaggerPolicy::StaggerPolicy(size_t shard_count)
    : // No shard has swapped yet, so the cool-down must not block first swaps.
      since_swap_(shard_count, kMinEpochsBetweenSwaps),
      queued_(shard_count, false) {}

void StaggerPolicy::BeginEpoch() {
  for (int& since : since_swap_) {
    ++since;
  }
  took_this_epoch_ = false;
}

bool StaggerPolicy::Observe(size_t shard, bool wants_swap) {
  if (!wants_swap || queued_[shard] || since_swap_[shard] <= kMinEpochsBetweenSwaps) {
    return false;
  }
  queued_[shard] = true;
  queue_.push_back(shard);
  return true;
}

std::optional<size_t> StaggerPolicy::TakeSwap() {
  if (took_this_epoch_ || queue_.empty()) {
    return std::nullopt;
  }
  const size_t shard = queue_.front();
  queue_.pop_front();
  queued_[shard] = false;
  took_this_epoch_ = true;
  return shard;
}

void StaggerPolicy::MarkSwapped(size_t shard) { since_swap_[shard] = 0; }

void StaggerPolicy::Withdraw(size_t shard) {
  if (!queued_[shard]) {
    return;
  }
  queued_[shard] = false;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == shard) {
      queue_.erase(it);
      break;
    }
  }
}

Status ServerGroupConfig::Validate() const {
  if (shards < 1) {
    return InvalidArgumentError("shards must be at least 1");
  }
  YH_RETURN_IF_ERROR(shard.Validate());
  YH_RETURN_IF_ERROR(guard.Validate());
  if (tenant_drift_threshold < 0.0) {
    return InvalidArgumentError("tenant_drift_threshold must be >= 0");
  }
  return Status::Ok();
}

std::string GroupReport::Summary() const {
  std::string out = StrFormat(
      "shards=%zu group_epochs=%zu rebuilds=%d installs=%d (%d reused) "
      "warm_start=%s",
      shards.size(), group_epochs, rebuilds, installs, reuse_installs,
      warm_started ? "yes" : "no");
  if (canaries + promotes + rollbacks + poison_blocked + rebuild_retries +
          watchdog_fires + store_fallbacks + tenant_quarantines +
          tenant_vetoes >
      0) {
    out += StrFormat(
        "\nguard: canaries=%d promotes=%d rollbacks=%d poison_blocked=%d "
        "rebuild_retries=%d watchdog_fires=%d store_fallbacks=%d "
        "tenant_quarantines=%d tenant_vetoes=%d",
        canaries, promotes, rollbacks, poison_blocked, rebuild_retries,
        watchdog_fires, store_fallbacks, tenant_quarantines, tenant_vetoes);
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    out += StrFormat("\n[shard %zu] %s", i, shards[i].Summary().c_str());
  }
  return out;
}

ServerGroup::ServerGroup(const isa::Program* original,
                         core::PipelineArtifacts initial,
                         std::vector<sim::Machine*> machines,
                         const ServerGroupConfig& config)
    : original_(original),
      machines_(std::move(machines)),
      config_(config),
      controller_(original, std::move(initial), config.shard.controller),
      tasks_(config.shards),
      factories_(config.shards),
      scavenger_binaries_(config.shards, nullptr),
      request_sources_(config.shards, nullptr),
      observers_(config.shards) {}

void ServerGroup::AddTask(size_t shard,
                          runtime::DualModeScheduler::ContextSetup setup) {
  tasks_[shard].push_back(std::move(setup));
}

void ServerGroup::SetObservability(obs::TraceRecorder* trace,
                                   obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metrics_ = metrics;
}

void ServerGroup::SetScavengerFactory(
    size_t shard, runtime::DualModeScheduler::ScavengerFactory factory) {
  factories_[shard] = std::move(factory);
}

void ServerGroup::SetScavengerBinary(
    size_t shard, const instrument::InstrumentedProgram* binary) {
  scavenger_binaries_[shard] = binary;
}

void ServerGroup::SetRequestSource(size_t shard, RequestSource* source) {
  request_sources_[shard] = source;
}

void ServerGroup::SetObservers(size_t shard,
                               const ShardObservers& observers) {
  observers_[shard] = observers;
}

Result<GroupReport> ServerGroup::Run() {
  YH_RETURN_IF_ERROR(config_.Validate());
  if (machines_.size() != config_.shards) {
    return InvalidArgumentError("server group needs one machine per shard");
  }

  GroupReport report;

  if (!config_.profile_path.empty() && config_.warm_start) {
    // Seed this run from the previous run's merged evidence. A MISSING file
    // is the normal day-1 cold start; a present-but-rejected file (corrupt,
    // truncated, future version — the typed ParseStoreFile errors) is a
    // counted fallback: the run still cold-starts instead of crashing or
    // half-loading, and the incident is visible. Either way a failed rebuild
    // leaves the offline build serving — degraded, never down.
    const Status warm = store_.WarmStartFrom(config_.profile_path);
    if (warm.ok()) {
      Result<AdaptController::SwapPlan> plan = controller_.RebuildFromLoads(
          store_.loads(), /*old_site_stats=*/{}, controller_.site_index(),
          /*built_epoch=*/0);
      if (plan.ok()) {
        report.warm_started = true;
        ++report.rebuilds;
      }
    } else if (warm.code() != StatusCode::kNotFound) {
      ++report.store_fallbacks;
      report.guard_log.push_back(
          {/*epoch=*/0, /*shard=*/0, /*generation_id=*/-1,
           GuardEventKind::kStoreFallback});
      obs::TraceEmit(trace_, obs::TraceEventType::kStoreFallback, /*cycle=*/0,
                     /*ctx_id=*/-1, /*ip=*/0,
                     static_cast<uint64_t>(warm.code()));
    }
  }

  const bool multi = config_.shards > 1;
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(config_.shards);
  for (size_t i = 0; i < config_.shards; ++i) {
    obs::Labels labels;
    if (multi) {
      labels = obs::LabelSet().Shard(i).Build();
    }
    shards.push_back(std::make_unique<Shard>(
        i, machines_[i], config_.shard, &controller_.current_generation(),
        scavenger_binaries_[i], factories_[i], std::move(tasks_[i]), trace_,
        metrics_, observers_[i], std::move(labels)));
    if (request_sources_[i] != nullptr) {
      shards.back()->SetRequestSource(request_sources_[i]);
    }
  }
  tasks_.assign(config_.shards, {});

  StaggerPolicy stagger(config_.shards);
  std::vector<bool> running(config_.shards, true);
  std::vector<bool> boundary(config_.shards, false);
  size_t group_epoch = 0;

  const GuardConfig& guard = config_.guard;
  const faultinject::ServingFaultHooks& hooks = config_.fault_hooks;
  const uint64_t tasks_per_epoch =
      static_cast<uint64_t>(config_.shard.tasks_per_epoch);

  // Canary state: at most one fresh generation is under evaluation at a
  // time, and every other swap is frozen while it is — which is what bounds
  // a regressed generation's exposure to one shard for one window.
  struct CanaryState {
    bool active = false;
    size_t shard = 0;
    int generation_id = 0;
    const BinaryGeneration* previous = nullptr;  // rollback target
    uint64_t evidence_fingerprint = 0;
    // Foreground tenants with a declared p99 budget on the canary shard and
    // whether each was WITHIN budget when the canary armed. A tenant that
    // was already over budget before the install cannot veto the promotion
    // (the regression predates the canary).
    std::vector<std::pair<std::string, bool>> tenant_within;
  } canary;
  GenerationHealth health(guard);

  // Rebuild retry-with-backoff state (guard only).
  int consecutive_rebuild_failures = 0;
  size_t rebuild_allowed_epoch = 0;
  uint64_t last_failed_fingerprint = 0;

  // Evidence fingerprints whose rebuilds are blocked (rolled back earlier),
  // with the epoch the block expires. The lineage's quarantine record is
  // permanent; this TTL is what lets a static workload adapt again after a
  // transient environmental regression.
  std::map<uint64_t, size_t> poison_until;
  // Generations built from fault-degraded evidence (kRegression): serving on
  // one costs hooks.cursed_penalty extra cycles every epoch.
  std::set<int> cursed_generations;

  // Trailing per-shard cycles/op over the last confirmation window: the
  // canary baseline when no peer shard serves through the window.
  std::vector<std::deque<double>> trailing_cpo(config_.shards);
  std::vector<uint64_t> epoch_cycles(config_.shards, 0);

  auto log_guard = [&](size_t shard, int generation_id, GuardEventKind kind,
                       obs::TraceEventType type, uint64_t cycle,
                       uint64_t arg) {
    report.guard_log.push_back({group_epoch, shard, generation_id, kind});
    obs::TraceEmit(trace_, type, cycle, static_cast<int32_t>(shard), /*ip=*/0,
                   arg);
  };
  // A guard decision on the canary generation, logged on the canary shard.
  auto log_canary = [&](GuardEventKind kind, obs::TraceEventType type) {
    log_guard(canary.shard, canary.generation_id, kind, type,
              machines_[canary.shard]->now(),
              static_cast<uint64_t>(canary.generation_id));
  };
  // Hot-swaps shard `i` onto `generation`; an install that succeeds takes
  // the epoch's swap slot and is logged.
  auto install = [&](size_t i, const BinaryGeneration* generation,
                     std::map<isa::Addr, runtime::YieldSiteStats> carried) {
    if (!shards[i]->InstallGeneration(generation, std::move(carried)).ok()) {
      return false;
    }
    ++report.installs;
    report.swap_log.emplace_back(group_epoch, i);
    stagger.MarkSwapped(i);
    return true;
  };

  while (true) {
    bool active = false;
    for (size_t i = 0; i < config_.shards; ++i) {
      if (running[i]) {
        active = true;
        break;
      }
    }
    if (!active) {
      break;
    }

    // One decay step per GROUP epoch; all shards contribute into it.
    store_.BeginEpoch();
    stagger.BeginEpoch();
    boundary.assign(config_.shards, false);
    epoch_cycles.assign(config_.shards, 0);

    for (size_t i = 0; i < config_.shards; ++i) {
      if (!running[i]) {
        continue;
      }
      const uint64_t epoch_start = machines_[i]->now();
      profile::LoadProfile evidence;
      Result<Shard::EpochOutcome> outcome =
          shards[i]->RunEpochTasks(&evidence);
      if (!outcome.ok()) {
        return outcome.status();
      }
      if (!outcome.value().boundary) {
        // Queue ran dry: this shard is done serving; Finish() flushes its
        // trailing partial epoch.
        running[i] = false;
        stagger.Withdraw(i);
        continue;
      }
      boundary[i] = true;
      if (hooks.corrupt_evidence) {
        hooks.corrupt_evidence(group_epoch, evidence);
      }
      const Shard::EpochOutcome& epoch_out = outcome.value();
      const bool tenant_aware =
          config_.tenant_drift_threshold > 0.0 && !epoch_out.tenants.empty();
      bool evidence_partitioned = false;
      double swap_score = epoch_out.score.score;
      if (tenant_aware) {
        // Fold each tenant's appearance score into the store's decayed
        // per-tenant drift view, then isolate any BACKGROUND tenant whose
        // view crossed the threshold. Foreground tenants are never
        // quarantined: their drift is the signal adaptation exists to serve.
        for (const Shard::TenantEpochEvidence& t : epoch_out.tenants) {
          store_.ObserveTenantDrift(t.name, t.score.score);
        }
        for (const Shard::TenantEpochEvidence& t : epoch_out.tenants) {
          if (t.background && !store_.TenantQuarantined(t.name) &&
              store_.TenantDrift(t.name) >= config_.tenant_drift_threshold) {
            store_.QuarantineTenant(t.name, kTenantQuarantineTtlEpochs);
            ++report.tenant_quarantines;
            log_guard(i, -1, GuardEventKind::kTenantQuarantine,
                      obs::TraceEventType::kTenantQuarantine,
                      machines_[i]->now(),
                      static_cast<uint64_t>(store_.TenantDrift(t.name) * 1e6));
          }
        }
        if (request_sources_[i] != nullptr) {
          // Quarantine actuates on the serving path too: the front end
          // demotes an isolated tenant to scavenger-only service until the
          // TTL releases it. Reconciling every tenant at every boundary
          // also handles release — the store's TTL expiry shows up here as
          // demoted=false.
          for (const Shard::TenantEpochEvidence& t : epoch_out.tenants) {
            request_sources_[i]->SetTenantDemoted(
                t.name, store_.TenantQuarantined(t.name));
          }
        }
        bool any_quarantined = false;
        for (const Shard::TenantEpochEvidence& t : epoch_out.tenants) {
          if (store_.TenantQuarantined(t.name)) {
            any_quarantined = true;
            break;
          }
        }
        if (any_quarantined) {
          // A quarantined tenant's evidence never reaches the shared store —
          // its phase change cannot shape the next rebuild — and the shard's
          // swap appetite is judged on its best-behaved remaining traffic.
          // Samples no tenant could be attributed to stay in: they are real
          // evidence and no antagonist controls them.
          evidence_partitioned = true;
          swap_score = 0.0;
          for (const Shard::TenantEpochEvidence& t : epoch_out.tenants) {
            if (!store_.TenantQuarantined(t.name)) {
              store_.Contribute(t.evidence);
              swap_score = std::max(swap_score, t.score.score);
            }
          }
          store_.Contribute(epoch_out.unattributed_evidence);
        }
      }
      if (!evidence_partitioned) {
        store_.Contribute(evidence);
      }
      stagger.Observe(i, config_.shard.adapt_enabled &&
                             swap_score >=
                                 config_.shard.controller.drift_threshold);
      const uint64_t served = machines_[i]->now() - epoch_start;
      if (hooks.cursed_penalty > 0.0 &&
          cursed_generations.count(shards[i]->generation()->id) > 0) {
        // This shard serves a generation built from degraded evidence: the
        // regression the canary comparison exists to catch.
        machines_[i]->AdvanceClock(static_cast<uint64_t>(
            hooks.cursed_penalty * static_cast<double>(served)));
      }
      if (hooks.stall_cycles) {
        // A stalled shard burns wall-clock past the boundary; the group sees
        // the inflated epoch (and the watchdog below reacts), the shard's
        // own telemetry stays clean.
        const uint64_t stall = hooks.stall_cycles(i, group_epoch, served);
        if (stall > 0) {
          machines_[i]->AdvanceClock(stall);
        }
      }
      epoch_cycles[i] = machines_[i]->now() - epoch_start;
    }

    // Epoch watchdog: a shard whose epoch ran far past the group median is
    // stalled — shed its swap-queue slot so the one-per-epoch stagger budget
    // is never parked on a shard that cannot take it.
    if (guard.enabled) {
      std::vector<uint64_t> durations;
      for (size_t i = 0; i < config_.shards; ++i) {
        if (boundary[i]) {
          durations.push_back(epoch_cycles[i]);
        }
      }
      if (durations.size() >= 2) {
        std::sort(durations.begin(), durations.end());
        const uint64_t median = durations[durations.size() / 2];
        for (size_t i = 0; i < config_.shards; ++i) {
          if (boundary[i] && static_cast<double>(epoch_cycles[i]) >
                                 kWatchdogFactor *
                                     static_cast<double>(median)) {
            stagger.Withdraw(i);
            ++report.watchdog_fires;
            log_guard(i, -1, GuardEventKind::kWatchdogFire,
                      obs::TraceEventType::kWatchdogFire, machines_[i]->now(),
                      epoch_cycles[i]);
          }
        }
      }
    }

    // Canary bookkeeping: accumulate this epoch's canary-vs-peer evidence;
    // when the confirmation window closes (or the canary shard finishes
    // serving early), render the verdict.
    bool rolled_back_this_epoch = false;
    if (canary.active) {
      if (boundary[canary.shard]) {
        health.ObserveCanaryEpoch(epoch_cycles[canary.shard], tasks_per_epoch);
      }
      for (size_t i = 0; i < config_.shards; ++i) {
        if (i != canary.shard && boundary[i]) {
          health.ObservePeerEpoch(epoch_cycles[i], tasks_per_epoch);
        }
      }
      if (health.window_complete() || !running[canary.shard]) {
        // p99 hidden latency on the canary and across its peers (0 where no
        // profiler recorded any).
        LatencyHistogram canary_hidden;
        LatencyHistogram peer_hidden;
        for (size_t i = 0; i < config_.shards; ++i) {
          MergeHiddenLatency(observers_[i].profiler,
                             i == canary.shard ? &canary_hidden : &peer_hidden);
        }
        health.SetHiddenLatencyP99(canary_hidden.P99(), peer_hidden.P99());
        const GenerationHealth::Verdict verdict = health.Judge();
        bool promote = verdict.promote;
        if (promote && guard.consult_slo &&
            observers_[canary.shard].slo != nullptr &&
            observers_[canary.shard].slo->alert_active()) {
          // Cycles/op cleared the bar, but the canary shard is burning its
          // error budget at alert rate: the generation is fast per op and
          // wrecking the tail. The burn alert outranks the cpo verdict.
          promote = false;
          ++report.slo_vetoes;
          log_canary(GuardEventKind::kSloVeto,
                     obs::TraceEventType::kCanaryRollback);
        }
        if (promote && config_.tenant_drift_threshold > 0.0 &&
            request_sources_[canary.shard] != nullptr &&
            !canary.tenant_within.empty()) {
          // Tenant budget veto: the canary may look healthy in aggregate
          // while the regression landed entirely on one foreground tenant.
          // Any tenant with a declared budget that was within it at arm time
          // and is over it now condemns the promotion.
          for (const TenantSnapshot& snap :
               request_sources_[canary.shard]->Tenants()) {
            if (snap.background || snap.p99_budget_cycles == 0) {
              continue;
            }
            bool was_within = false;
            for (const auto& [name, within] : canary.tenant_within) {
              if (name == snap.name) {
                was_within = within;
                break;
              }
            }
            if (was_within &&
                snap.p99_latency_cycles > snap.p99_budget_cycles) {
              promote = false;
              ++report.tenant_vetoes;
              log_canary(GuardEventKind::kTenantVeto,
                         obs::TraceEventType::kCanaryRollback);
              break;
            }
          }
        }
        const Shard& shard = *shards[canary.shard];
        if (!promote && running[canary.shard] && canary.previous != nullptr) {
          // Roll back: reinstall the last good generation on the canary
          // shard, quarantine the regressed one, and block the evidence it
          // was built from (poison_until), so the same bad profile cannot be
          // rebuilt next epoch.
          rolled_back_this_epoch = install(
              canary.shard, canary.previous,
              AdaptController::TranslateSiteStats(
                  shard.generation()->site_index, canary.previous->site_index,
                  shard.site_stats()));
          controller_.QuarantineGeneration(canary.generation_id);
          poison_until[canary.evidence_fingerprint] =
              group_epoch + kPoisonTtlEpochs;
          ++report.rollbacks;
          log_canary(GuardEventKind::kRollback,
                     obs::TraceEventType::kCanaryRollback);
        } else {
          // Promoted: the generation spreads group-wide through the normal
          // reuse path as peers hit their drift thresholds. Or the canary
          // shard finished serving mid-window with healthy (or no)
          // evidence: nothing left to install on, nothing to condemn.
          ++report.promotes;
          log_canary(GuardEventKind::kPromote,
                     obs::TraceEventType::kCanaryPromote);
        }
        report.guard_log.back().ratio =
            verdict.baseline_cycles_per_op > 0.0
                ? verdict.canary_cycles_per_op / verdict.baseline_cycles_per_op
                : 0.0;
        canary.active = false;
        for (size_t s = 0; s < config_.shards; ++s) {
          if (observers_[s].spans != nullptr) {
            observers_[s].spans->EndControlWindow(machines_[s]->now());
          }
          if (observers_[s].exemplars != nullptr) {
            observers_[s].exemplars->EndControlWindow();
          }
        }
      }
    }

    // At most one shard swaps per group epoch (the stagger invariant), and
    // none at all while a canary is under evaluation — freezing the swap
    // lane is what bounds a bad generation to one shard. A fresh-enough
    // HEALTHY generation built for an earlier shard is reused outright;
    // otherwise rebuild from the SHARED store, so the new binary reflects
    // what the whole group has seen — not just the swapping shard.
    std::optional<size_t> chosen;
    if (!canary.active && !rolled_back_this_epoch) {
      chosen = stagger.TakeSwap();
    }
    if (chosen.has_value()) {
      Shard& shard = *shards[*chosen];
      const BinaryGeneration& newest = controller_.current_generation();
      const bool reusable =
          !newest.quarantined && newest.id > shard.generation()->id &&
          group_epoch - newest.built_epoch <= kGenerationReuseEpochs;
      if (reusable) {
        shard.TraceSwapBegin();
        if (install(*chosen, &newest,
                    AdaptController::TranslateSiteStats(
                        shard.generation()->site_index, newest.site_index,
                        shard.site_stats()))) {
          ++report.reuse_installs;
        }
      } else if (guard.enabled && group_epoch < rebuild_allowed_epoch) {
        // Still inside a failed rebuild's backoff: skip the attempt without
        // counting a failure. The shard re-queues at the next boundary while
        // its drift persists, and keeps serving the last good generation.
      } else {
        profile::LoadProfile rebuild_evidence = store_.loads();
        const bool degraded =
            hooks.degrade_build && hooks.degrade_build(group_epoch);
        if (degraded) {
          rebuild_evidence = faultinject::InvertLoads(rebuild_evidence,
                                                      group_epoch + 1);
        }
        const uint64_t fingerprint = FingerprintLoads(rebuild_evidence);
        const auto poison = poison_until.find(fingerprint);
        const bool poisoned = guard.enabled && poison != poison_until.end() &&
                              group_epoch < poison->second;
        const bool retries_exhausted =
            guard.enabled &&
            consecutive_rebuild_failures >= kMaxRebuildRetries &&
            fingerprint == last_failed_fingerprint;
        if (poisoned || retries_exhausted) {
          // Keep serving the last good generation: this evidence either
          // built a generation that was rolled back, or failed to build too
          // many times in a row. New evidence (a new fingerprint) re-arms
          // the rebuild path.
          ++report.poison_blocked;
          log_guard(*chosen, -1, GuardEventKind::kPoisonBlocked,
                    obs::TraceEventType::kRebuildRetry,
                    machines_[*chosen]->now(), /*arg=*/0);
        } else {
          shard.TraceSwapBegin();
          const bool injected_failure =
              hooks.fail_rebuild && hooks.fail_rebuild(group_epoch);
          Result<AdaptController::SwapPlan> plan =
              injected_failure
                  ? Result<AdaptController::SwapPlan>(UnavailableError(
                        "injected rebuild failure (kRebuildFail)"))
                  : controller_.RebuildFromLoads(
                        rebuild_evidence, shard.site_stats(),
                        shard.generation()->site_index, group_epoch);
          if (!plan.ok()) {
            shard.OnRebuildFailed();
            if (guard.enabled) {
              ++consecutive_rebuild_failures;
              ++report.rebuild_retries;
              last_failed_fingerprint = fingerprint;
              const int shift =
                  std::min(consecutive_rebuild_failures - 1, 10);
              const int backoff =
                  std::min(kRetryBackoffEpochs << shift, kMaxBackoffEpochs);
              rebuild_allowed_epoch = group_epoch + 1 +
                                      static_cast<size_t>(backoff);
              log_guard(*chosen, -1, GuardEventKind::kRebuildRetry,
                        obs::TraceEventType::kRebuildRetry,
                        machines_[*chosen]->now(),
                        static_cast<uint64_t>(backoff));
            }
          } else {
            consecutive_rebuild_failures = 0;
            ++report.rebuilds;
            if (degraded) {
              cursed_generations.insert(controller_.current_generation().id);
            }
            const BinaryGeneration* previous = shard.generation();
            if (install(*chosen, &controller_.current_generation(),
                        std::move(plan.value().carried_site_stats)) &&
                guard.enabled) {
              // The fresh generation starts life as a canary on this one
              // shard; its trailing cycles/op is the no-peer baseline.
              canary.active = true;
              canary.shard = *chosen;
              canary.generation_id = controller_.current_generation().id;
              canary.previous = previous;
              canary.evidence_fingerprint = fingerprint;
              canary.tenant_within.clear();
              if (config_.tenant_drift_threshold > 0.0 &&
                  request_sources_[*chosen] != nullptr) {
                for (const TenantSnapshot& snap :
                     request_sources_[*chosen]->Tenants()) {
                  if (!snap.background && snap.p99_budget_cycles > 0) {
                    canary.tenant_within.emplace_back(
                        snap.name,
                        snap.p99_latency_cycles <= snap.p99_budget_cycles);
                  }
                }
              }
              double fallback = 0.0;
              if (!trailing_cpo[*chosen].empty()) {
                for (const double cpo : trailing_cpo[*chosen]) {
                  fallback += cpo;
                }
                fallback /= static_cast<double>(trailing_cpo[*chosen].size());
              }
              health.Arm(fallback);
              ++report.canaries;
              log_canary(GuardEventKind::kCanaryBegin,
                         obs::TraceEventType::kCanaryBegin);
              // The swap lane freezes group-wide until the verdict: mark
              // the confirmation window as control-plane interference on
              // every shard's span collector.
              for (size_t s = 0; s < config_.shards; ++s) {
                if (observers_[s].spans != nullptr) {
                  observers_[s].spans->BeginControlWindow(machines_[s]->now());
                }
                if (observers_[s].exemplars != nullptr) {
                  observers_[s].exemplars->BeginControlWindow();
                }
              }
            }
          }
        }
      }
    }

    for (size_t i = 0; i < config_.shards; ++i) {
      if (boundary[i]) {
        shards[i]->FinishEpochBoundary(/*adapting=*/true, controller_);
        if (tasks_per_epoch > 0) {
          trailing_cpo[i].push_back(static_cast<double>(epoch_cycles[i]) /
                                    static_cast<double>(tasks_per_epoch));
          while (trailing_cpo[i].size() >
                 static_cast<size_t>(guard.confirmation_window)) {
            trailing_cpo[i].pop_front();
          }
        }
      }
    }
    ++group_epoch;
  }

  report.group_epochs = group_epoch;
  for (size_t i = 0; i < config_.shards; ++i) {
    Result<AdaptReport> shard_report = shards[i]->Finish(controller_);
    if (!shard_report.ok()) {
      return shard_report.status();
    }
    report.shards.push_back(std::move(shard_report).value());
  }

  if (metrics_ != nullptr) {
    // Group-level guard counters (unlabeled: guard decisions are group
    // scoped; the shard involved rides in the guard_log and trace events).
    metrics_->GetCounter("yh_guard_canary_total")
        ->Set(static_cast<uint64_t>(report.canaries));
    metrics_->GetCounter("yh_guard_promote_total")
        ->Set(static_cast<uint64_t>(report.promotes));
    metrics_->GetCounter("yh_guard_rollback_total")
        ->Set(static_cast<uint64_t>(report.rollbacks));
    metrics_->GetCounter("yh_guard_poison_blocked_total")
        ->Set(static_cast<uint64_t>(report.poison_blocked));
    metrics_->GetCounter("yh_guard_rebuild_retries_total")
        ->Set(static_cast<uint64_t>(report.rebuild_retries));
    metrics_->GetCounter("yh_guard_watchdog_fires_total")
        ->Set(static_cast<uint64_t>(report.watchdog_fires));
    metrics_->GetCounter("yh_guard_slo_veto_total")
        ->Set(static_cast<uint64_t>(report.slo_vetoes));
    metrics_->GetCounter("yh_guard_tenant_quarantine_total")
        ->Set(static_cast<uint64_t>(report.tenant_quarantines));
    metrics_->GetCounter("yh_guard_tenant_veto_total")
        ->Set(static_cast<uint64_t>(report.tenant_vetoes));
    metrics_->GetCounter("yh_store_load_fallback_total")
        ->Set(static_cast<uint64_t>(report.store_fallbacks));
  }

  if (!config_.profile_path.empty()) {
    // Persist the store blended with the serving generation's reference (the
    // merged evidence the current binary was built from) as the dominant
    // share: raw sample evidence self-erases once drift is repaired —
    // instrumented and prefetched sites stop missing — so the store alone
    // under-reports exactly the sites a warm-started rebuild must keep.
    YH_RETURN_IF_ERROR(store_.SaveMergedWith(
        controller_.reference_loads(), kPersistReferenceShare,
        config_.profile_path));
  }
  return report;
}

}  // namespace yieldhide::adapt
