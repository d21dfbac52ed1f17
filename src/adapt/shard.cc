#include "src/adapt/shard.h"

#include <utility>

#include "src/common/strings.h"

namespace yieldhide::adapt {

namespace {
// Drift-aware sampling's rate-scale bounds: <1 = slower than baseline
// (quiet), >1 = faster (drifting).
constexpr double kMinRateScale = 0.5;
constexpr double kMaxRateScale = 4.0;
// Consecutive epochs below 5% of the drift threshold before relaxing to
// kMinRateScale.
constexpr int kQuietEpochs = 2;
}  // namespace

profile::CollectorConfig LowOverheadSamplingConfig() {
  profile::CollectorConfig config;
  config.l2_miss_period = 127;
  config.stall_cycles_period = 2003;
  config.retired_period = 301;
  config.period_jitter = 0.05;  // break loop-period resonance
  config.enable_lbr = false;
  config.seed = 7;
  return config;
}

Status AdaptiveServerConfig::Validate() const {
  if (tasks_per_epoch < 1) {
    return InvalidArgumentError("tasks_per_epoch must be at least 1");
  }
  if (controller.drift_threshold < 0.0) {
    return InvalidArgumentError("controller.drift_threshold must be >= 0");
  }
  if (dual.max_scavengers < 1) {
    return InvalidArgumentError("dual.max_scavengers must be >= 1");
  }
  if (dual.hide_window_cycles == 0) {
    return InvalidArgumentError("dual.hide_window_cycles must be > 0");
  }
  return Status::Ok();
}

std::string AdaptReport::Summary() const {
  return StrFormat(
      "epochs=%zu swaps=%d(+%d failed) final_drift=%.3f efficiency=%.1f%% "
      "samples=%llu(+%llu dropped) sampling_overhead=%s cycles\n%s",
      epochs.size(), swaps, swap_failures, final_drift,
      100.0 * run.CpuEfficiency(),
      static_cast<unsigned long long>(samples_accepted),
      static_cast<unsigned long long>(samples_dropped),
      WithCommas(sampling_overhead_cycles).c_str(), run.Summary().c_str());
}

Shard::Shard(size_t id, sim::Machine* machine,
             const AdaptiveServerConfig& config,
             const BinaryGeneration* generation,
             const instrument::InstrumentedProgram* scavenger_binary,
             runtime::DualModeScheduler::ScavengerFactory factory,
             std::deque<runtime::DualModeScheduler::ContextSetup> tasks,
             obs::TraceRecorder* trace, obs::MetricsRegistry* metrics,
             const ShardObservers& observers, obs::Labels labels)
    : id_(id),
      machine_(machine),
      config_(config),
      dual_(config.dual),
      generation_(generation),
      shared_binary_(scavenger_binary == nullptr),
      trace_(trace),
      metrics_(metrics),
      observers_(observers),
      labels_(std::move(labels)) {
  if (config_.scale_pool) {
    // The feedback loop owns the pool size: start minimal and let starvation
    // evidence grow it (dual.max_scavengers stays untouched for non-adaptive
    // callers).
    dual_.max_scavengers = kMinScavengers + 1;
  }
  scheduler_ = std::make_unique<runtime::DualModeScheduler>(
      &generation_->binary(),
      shared_binary_ ? &generation_->binary() : scavenger_binary, machine_,
      dual_);
  scheduler_->SetObservability(trace_, metrics_);
  scheduler_->SetMetricsLabels(labels_);
  scheduler_->SetProfiler(observers_.profiler);
  scheduler_->SetSpanCollector(observers_.spans);
  if (observers_.exemplars != nullptr) {
    observers_.exemplars->SetContext(generation_->id, /*epoch=*/0,
                                     generation_->quarantined);
  }
  if (factory) {
    scheduler_->SetScavengerFactory(std::move(factory));
  }
  while (!tasks.empty()) {
    scheduler_->AddPrimaryTask(std::move(tasks.front()));
    tasks.pop_front();
  }

  session_ = MakeSession(ScaledSampling(rate_scale_));
  periods_ = profile::MakeSamplePeriods(ScaledSampling(rate_scale_));
  session_->AttachTo(*machine_);
  session_attached_ = true;
  epoch_start_ = machine_->now();
}

Shard::~Shard() {
  if (session_attached_) {
    session_->DetachFrom(*machine_);
  }
}

// Sampling periods divided by the current rate scale (1.0 until drift-aware
// sampling moves it): >1 samples harder, <1 relaxes below baseline.
profile::CollectorConfig Shard::ScaledSampling(double rate_scale) const {
  profile::CollectorConfig scaled = LowOverheadSamplingConfig();
  auto scale_period = [&](uint64_t period) -> uint64_t {
    if (period == 0 || rate_scale <= 0.0) {
      return period;  // disabled events stay disabled
    }
    const double p = static_cast<double>(period) / rate_scale;
    return p < 1.0 ? 1 : static_cast<uint64_t>(p + 0.5);
  };
  scaled.l1_miss_period = scale_period(scaled.l1_miss_period);
  scaled.l2_miss_period = scale_period(scaled.l2_miss_period);
  scaled.l3_miss_period = scale_period(scaled.l3_miss_period);
  scaled.stall_cycles_period = scale_period(scaled.stall_cycles_period);
  scaled.retired_period = scale_period(scaled.retired_period);
  return scaled;
}

std::unique_ptr<pmu::SamplingSession> Shard::MakeSession(
    const profile::CollectorConfig& sampling) const {
  pmu::SessionConfig session_config = profile::MakeSessionConfig(sampling);
  session_config.enable_lbr = false;  // block re-profiling is an open item
  auto session = std::make_unique<pmu::SamplingSession>(session_config);
  // The shard publishes the sampling metrics itself, because a session's
  // counters restart at zero on every period rescale.
  session->SetTrace(trace_);
  return session;
}

void Shard::OpenBoundary(profile::LoadProfile* epoch_evidence) {
  const uint64_t overhead_total = overhead_base_ + session_->OverheadCycles();
  const uint64_t overhead_delta = overhead_total - charged_overhead_;
  charged_overhead_ = overhead_total;
  if (config_.charge_sampling_overhead && overhead_delta > 0) {
    machine_->AdvanceClock(overhead_delta);
  }

  const runtime::DualModeReport& progress = scheduler_->progress();
  epoch_ = EpochTelemetry{};
  epoch_.epoch = report_.epochs.size();
  epoch_.generation_id = generation_->id;
  epoch_.tasks_completed = progress.run.completions.size();
  epoch_.cycles = machine_->now() - epoch_start_;
  epoch_.sampling_overhead_cycles = overhead_delta;
  epoch_.pool_cap = scheduler_->scavenger_pool_cap();
  // Long-lived scavengers only flush into the report at halt/swap/end, so
  // per-epoch efficiency counts their live (unflushed) issue cycles too.
  const uint64_t issue_total = progress.run.issue_cycles +
                               scheduler_->live_scavenger_cycles().issue_cycles;
  if (epoch_.cycles > 0) {
    epoch_.efficiency = static_cast<double>(issue_total - last_issue_) /
                        static_cast<double>(epoch_.cycles);
  }
  deltas_ = AdaptController::BurstDeltas{
      progress.bursts - last_bursts_, progress.bursts_starved - last_starved_,
      progress.burst_busy_cycles - last_busy_};
  epoch_.burst_occupancy = runtime::BurstOccupancy(
      deltas_.burst_busy_cycles, deltas_.bursts, dual_.hide_window_cycles);

  online_.BeginEpoch();
  const std::vector<pmu::PebsSample> samples = session_->DrainAllSamples();
  online_.ObserveSamples(samples, periods_, generation_->backmap,
                         epoch_evidence);
  FoldTenantSamples(samples);

  // Drift is scored against THIS shard's generation: its reference profile
  // and site index describe the binary actually serving here, which may lag
  // the controller's newest between staggered swaps.
  const DriftScore score = ComputeDriftScore(
      generation_->reference_loads, online_.loads(), generation_->site_index,
      progress.site_stats);
  epoch_.drift = score.score;
  epoch_.drift_appearance = score.appearance;
  epoch_.drift_divergence = score.divergence;
  report_.final_drift = score.score;
  obs::TraceEmit(trace_, obs::TraceEventType::kDriftUpdate, machine_->now(),
                 static_cast<int32_t>(id_), 0,
                 static_cast<uint64_t>(score.score * 1e6 + 0.5));
}

void Shard::FoldTenantSamples(const std::vector<pmu::PebsSample>& samples) {
  tenant_epoch_.clear();
  unattributed_epoch_ = profile::LoadProfile{};
  if (request_source_ == nullptr) {
    return;
  }
  const std::vector<TenantSnapshot> snapshots = request_source_->Tenants();
  if (snapshots.size() < 2) {
    return;  // tenant-blind (or single-tenant) source: nothing to attribute
  }
  while (tenant_online_.size() < snapshots.size()) {
    tenant_online_.emplace_back();
  }
  // Partition the epoch's samples by which tenant's request held the primary
  // slot when each fired. Scavenger-context samples land wherever the
  // timeline says, and the per-tenant ObserveSamples skips them exactly like
  // the aggregate fold does — only primary evidence drives drift.
  std::vector<std::vector<pmu::PebsSample>> partition(snapshots.size());
  std::vector<pmu::PebsSample> unattributed;
  for (const pmu::PebsSample& sample : samples) {
    const int tenant = request_source_->TenantAtCycle(sample.cycle);
    if (tenant >= 0 && static_cast<size_t>(tenant) < partition.size()) {
      partition[static_cast<size_t>(tenant)].push_back(sample);
    } else {
      unattributed.push_back(sample);
    }
  }
  request_source_->ForgetTenantTimelineBefore(machine_->now());
  static const std::map<isa::Addr, runtime::YieldSiteStats> kNoSiteStats;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    TenantEpochEvidence evidence;
    evidence.name = snapshots[i].name;
    evidence.background = snapshots[i].background;
    tenant_online_[i].BeginEpoch();
    tenant_online_[i].ObserveSamples(partition[i], periods_,
                                     generation_->backmap, &evidence.evidence);
    // Appearance-only score (empty site stats): divergence is shared by all
    // tenants' requests and cannot be attributed to one of them.
    evidence.score = ComputeDriftScore(
        generation_->reference_loads, tenant_online_[i].loads(),
        generation_->site_index, kNoSiteStats);
    tenant_epoch_.push_back(std::move(evidence));
  }
  // The tenant-less remainder still feeds the store under quarantine.
  OnlineProfile scratch;
  scratch.ObserveSamples(unattributed, periods_, generation_->backmap,
                         &unattributed_epoch_);
}

Result<Shard::EpochOutcome> Shard::RunEpochTasks(
    profile::LoadProfile* epoch_evidence) {
  const size_t tasks_per_epoch = static_cast<size_t>(config_.tasks_per_epoch);
  size_t done = 0;
  while (done < tasks_per_epoch) {
    if (scheduler_->pending_tasks() == 0 && request_source_ != nullptr) {
      // Open-loop serving: the source harvests completions, admits due
      // arrivals, and dispatches the queue head (possibly after advancing
      // the clock across an idle gap or donating it to in-flight scavenger
      // requests). False = stream exhausted and everything accounted.
      if (!request_source_->Poll(*machine_, *scheduler_)) {
        break;
      }
      if (scheduler_->pending_tasks() == 0) {
        break;  // source admitted nothing despite claiming liveness
      }
    }
    Result<size_t> ran = scheduler_->RunTasks(tasks_per_epoch - done);
    if (!ran.ok()) {
      return ran.status();
    }
    if (ran.value() == 0) {
      break;  // closed-loop deque drained
    }
    done += ran.value();
  }
  EpochOutcome outcome;
  if (done < tasks_per_epoch) {
    if (request_source_ != nullptr) {
      // Final poll so the last completions' respond stages are charged and
      // harvested before the shard reports itself done.
      request_source_->Poll(*machine_, *scheduler_);
    }
    // Queue ran dry mid-epoch: no full boundary. Finish() flushes the
    // trailing partial epoch (telemetry-only).
    return outcome;
  }
  OpenBoundary(epoch_evidence);
  outcome.boundary = true;
  outcome.score.appearance = epoch_.drift_appearance;
  outcome.score.divergence = epoch_.drift_divergence;
  outcome.score.score = epoch_.drift;
  outcome.tenants = std::move(tenant_epoch_);
  outcome.unattributed_evidence = std::move(unattributed_epoch_);
  tenant_epoch_.clear();
  return outcome;
}

void Shard::SetRequestSource(RequestSource* source) {
  request_source_ = source;
  if (source == nullptr) {
    scheduler_->SetScavengerLifecycleHooks(nullptr, nullptr);
    return;
  }
  scheduler_->SetScavengerLifecycleHooks(
      [source](int ctx_id, uint64_t now) {
        source->OnScavengerSpawn(ctx_id, now);
      },
      [source](int ctx_id, uint64_t now, bool completed) {
        source->OnScavengerRetire(ctx_id, now, completed);
      });
}

void Shard::TraceSwapBegin() {
  obs::TraceEmit(trace_, obs::TraceEventType::kSwapBegin, machine_->now(),
                 static_cast<int32_t>(id_), 0,
                 static_cast<uint64_t>(epoch_.drift * 1e6 + 0.5));
}

void Shard::OnRebuildFailed() {
  // Rebuild failed (e.g. the merged profile instrumented nothing the
  // verifier accepts): keep serving the current binary — degraded, not down.
  ++report_.swap_failures;
}

Status Shard::InstallGeneration(
    const BinaryGeneration* generation,
    std::map<isa::Addr, runtime::YieldSiteStats> carried_site_stats) {
  const Status swapped = scheduler_->SwapBinaries(
      &generation->binary(),
      shared_binary_ ? &generation->binary() : nullptr,
      std::move(carried_site_stats));
  if (swapped.ok()) {
    epoch_.swapped = true;
    generation_ = generation;
    ++report_.swaps;
  } else if (swap_status_.ok()) {
    swap_status_ = swapped;  // structurally impossible at a safe point
  }
  return swapped;
}

void Shard::FinishEpochBoundary(bool adapting,
                                const AdaptController& controller) {
  if (adapting && config_.scale_pool) {
    scheduler_->SetScavengerPoolCap(controller.RecommendPoolCap(
        deltas_, dual_.hide_window_cycles, scheduler_->scavenger_pool_cap()));
  }

  if (adapting && config_.drift_aware_sampling) {
    // Pick next epoch's sampling rate from this epoch's drift. Quantized
    // steps, not a continuous map: period changes rebuild the session, so
    // they should be rare and deliberate.
    const double threshold = config_.controller.drift_threshold;
    double next_scale = 1.0;
    if (epoch_.swapped || threshold <= 0.0) {
      // Fresh reference after a swap: old drift evidence is stale.
      quiet_epochs_ = 0;
    } else if (epoch_.drift >= threshold) {
      quiet_epochs_ = 0;
      next_scale = kMaxRateScale;
    } else if (epoch_.drift >= 0.5 * threshold) {
      quiet_epochs_ = 0;
      next_scale = 0.5 * kMaxRateScale;
    } else if (epoch_.drift < 0.05 * threshold) {
      ++quiet_epochs_;
      if (quiet_epochs_ >= kQuietEpochs) {
        next_scale = kMinRateScale;
      }
    } else {
      quiet_epochs_ = 0;
    }
    if (next_scale != rate_scale_) {
      // Periods are baked into the samplers at construction: replace the
      // session. Retire the old session's modeled overhead into the base
      // (accounting stays monotone) and recompute the per-event weights the
      // online profile scales samples by.
      overhead_base_ += session_->OverheadCycles();
      session_->DetachFrom(*machine_);
      rate_scale_ = next_scale;
      session_ = MakeSession(ScaledSampling(rate_scale_));
      periods_ = profile::MakeSamplePeriods(ScaledSampling(rate_scale_));
      session_->AttachTo(*machine_);
    }
  }

  if (metrics_ != nullptr) {
    auto labeled = [&](const char* extra_key, const char* extra_value) {
      obs::Labels labels = labels_;
      labels.emplace_back(extra_key, extra_value);
      return labels;
    };
    metrics_->GetCounter("yh_adapt_epochs_total", labels_)->Increment();
    metrics_->GetCounter("yh_adapt_swaps_total", labels_)->Set(report_.swaps);
    metrics_->GetCounter("yh_adapt_swap_failures_total", labels_)
        ->Set(report_.swap_failures);
    metrics_->GetCounter("yh_adapt_samples_accepted_total", labels_)
        ->Set(online_.samples_accepted());
    metrics_->GetCounter("yh_adapt_samples_dropped_total", labels_)
        ->Set(online_.samples_dropped());
    metrics_->GetCounter("yh_adapt_sampling_overhead_cycles_total", labels_)
        ->Set(charged_overhead_);
    metrics_->GetGauge("yh_adapt_drift_score", labels_)->Set(epoch_.drift);
    metrics_->GetGauge("yh_adapt_epoch_efficiency", labels_)
        ->Set(epoch_.efficiency);
    metrics_->GetGauge("yh_adapt_burst_occupancy", labels_)
        ->Set(epoch_.burst_occupancy);
    metrics_->GetGauge("yh_adapt_pool_cap", labels_)
        ->Set(static_cast<double>(scheduler_->scavenger_pool_cap()));
    metrics_->GetGauge("yh_adapt_sampling_rate_scale", labels_)
        ->Set(rate_scale_);
    const profile::CollectorConfig current = ScaledSampling(rate_scale_);
    metrics_->GetGauge("yh_adapt_sampling_period", labeled("event", "l2_miss"))
        ->Set(static_cast<double>(current.l2_miss_period));
    metrics_
        ->GetGauge("yh_adapt_sampling_period", labeled("event", "stall_cycles"))
        ->Set(static_cast<double>(current.stall_cycles_period));
    metrics_->GetGauge("yh_adapt_sampling_period", labeled("event", "retired"))
        ->Set(static_cast<double>(current.retired_period));
  }

  // Snapshot AFTER a possible swap: retiring old-binary scavengers moves
  // their cycles from live to report, so report + live is swap-invariant.
  const runtime::DualModeReport& after = scheduler_->progress();
  last_issue_ = after.run.issue_cycles +
                scheduler_->live_scavenger_cycles().issue_cycles;
  last_bursts_ = after.bursts;
  last_starved_ = after.bursts_starved;
  last_busy_ = after.burst_busy_cycles;
  epoch_start_ = machine_->now();
  if (observers_.profiler != nullptr) {
    // Per-epoch attribution slice: sweep the residue first so the slice sits
    // on an exact cycle partition, then snapshot cumulative class totals.
    observers_.profiler->SyncToClock(machine_->now());
    observers_.profiler->SnapshotEpoch(report_.epochs.size(), machine_->now());
  }
  if (observers_.spans != nullptr) {
    // The span-side slice for the same epoch, on the same clock stamp, so
    // the diff engine can rank span classes next to cycle classes.
    observers_.spans->SnapshotEpoch(report_.epochs.size(), machine_->now());
  }
  if (observers_.exemplars != nullptr) {
    // Completions from here on belong to the NEXT epoch, served by the
    // (possibly just-installed) current generation.
    observers_.exemplars->SetContext(generation_->id,
                                     report_.epochs.size() + 1,
                                     generation_->quarantined);
  }
  report_.epochs.push_back(epoch_);
}

Result<AdaptReport> Shard::Finish(const AdaptController& controller) {
  Result<runtime::DualModeReport> run = scheduler_->Finalize();
  if (session_attached_) {
    session_->DetachFrom(*machine_);
    session_attached_ = false;
  }
  if (!run.ok()) {
    return run.status();
  }
  report_.run = std::move(run).value();
  if (!swap_status_.ok()) {
    return swap_status_;
  }
  // Telemetry for a trailing partial epoch.
  const size_t tasks_per_epoch = static_cast<size_t>(config_.tasks_per_epoch);
  if (report_.run.run.completions.size() % tasks_per_epoch != 0) {
    OpenBoundary(nullptr);
    FinishEpochBoundary(/*adapting=*/false, controller);
  }

  report_.samples_accepted = online_.samples_accepted();
  report_.samples_dropped = online_.samples_dropped();
  report_.sampling_overhead_cycles = charged_overhead_;
  return std::move(report_);
}

}  // namespace yieldhide::adapt
