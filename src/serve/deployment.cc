#include "src/serve/deployment.h"

#include <utility>

#include "src/obs/labels.h"

namespace yieldhide::serve {
namespace {

// The guard decisions that are control-plane actions in a diff window.
std::optional<obs::ControlEvent::Kind> ControlKind(adapt::GuardEventKind kind) {
  using Kind = obs::ControlEvent::Kind;
  switch (kind) {
    case adapt::GuardEventKind::kCanaryBegin:
      return Kind::kCanaryBegin;
    case adapt::GuardEventKind::kPromote:
      return Kind::kCanaryPromote;
    case adapt::GuardEventKind::kRollback:
      return Kind::kCanaryRollback;
    case adapt::GuardEventKind::kPoisonBlocked:
      return Kind::kPoisonBlocked;
    case adapt::GuardEventKind::kRebuildRetry:
      return Kind::kRebuildRetry;
    case adapt::GuardEventKind::kWatchdogFire:
      return Kind::kWatchdogFire;
    case adapt::GuardEventKind::kSloVeto:
      return Kind::kSloVeto;
    case adapt::GuardEventKind::kStoreFallback:
      // A load-time artifact, not an epoch-window action.
    case adapt::GuardEventKind::kTenantQuarantine:
    case adapt::GuardEventKind::kTenantVeto:
      // Tenant-policy actions route evidence and vetoes, not generations: the
      // veto's effect arrives as the kRollback it forces.
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

Result<Deployment> Deployment::Build(const workloads::SimWorkload& workload,
                                     core::PipelineArtifacts stale,
                                     const DeploymentSpec& spec) {
  YH_RETURN_IF_ERROR(spec.group.Validate());
  YH_RETURN_IF_ERROR(spec.front_end.Validate());
  if (spec.front_end.id_seed != 0) {
    return InvalidArgumentError(
        "deployment: front_end.id_seed is derived per shard from "
        "arrival.seed; leave it 0");
  }
  if (spec.slo.has_value()) {
    YH_RETURN_IF_ERROR(spec.slo->Validate());
  }
  if (spec.exemplars.has_value()) {
    YH_RETURN_IF_ERROR(spec.exemplars->Validate());
    if (!spec.spans.has_value()) {
      return InvalidArgumentError(
          "deployment: exemplars need spans (the span collector feeds the "
          "reservoir)");
    }
  }

  Deployment deployment;
  deployment.trace_ = spec.trace;
  const size_t shards = spec.group.shards;
  std::vector<sim::Machine*> machines;
  for (size_t s = 0; s < shards; ++s) {
    ShardParts& parts = deployment.shards_.emplace_back();
    parts.machine = std::make_unique<sim::Machine>(
        spec.group.shard.controller.pipeline.machine);
    workload.InitMemory(parts.machine->memory());
    machines.push_back(parts.machine.get());
  }
  deployment.group_ = std::make_unique<adapt::ServerGroup>(
      &workload.program(), std::move(stale), std::move(machines), spec.group);
  adapt::ServerGroup& group = *deployment.group_;
  group.SetObservability(spec.trace, spec.metrics);

  auto handler = [](const workloads::SimWorkload* served) {
    return [served](uint64_t id) {
      return served->SetupFor(static_cast<int>(id));
    };
  };
  for (size_t s = 0; s < shards; ++s) {
    ShardParts& parts = deployment.shards_[s];
    FrontEndConfig config = spec.front_end;
    config.arrival.seed += s;
    config.id_seed = config.arrival.seed;
    parts.front_end = std::make_unique<ShardFrontEnd>(
        config, handler(&workload), spec.trace, spec.metrics,
        shards > 1 ? obs::LabelSet().Shard(s).Build() : obs::Labels{});
    ShardFrontEnd& front = *parts.front_end;
    for (size_t t = 0; t < front.tenants().size(); ++t) {
      const TenantSpec& tenant = front.tenants()[t];
      if (spec.stable != nullptr && !tenant.background()) {
        front.SetTenantHandler(t, handler(spec.stable));
      }
      if (spec.tenant_slos && tenant.p99_budget_cycles > 0) {
        obs::SloConfig budget;
        budget.latency_budget_cycles = tenant.p99_budget_cycles;
        parts.tenant_slos.push_back(
            std::make_unique<obs::SloEvaluator>(budget));
        front.SetTenantSloEvaluator(t, parts.tenant_slos.back().get());
      }
    }
    group.SetRequestSource(s, &front);
    group.SetScavengerFactory(s, front.MakeScavengerFactory());

    if (spec.profiler.has_value()) {
      parts.profiler = std::make_unique<obs::CycleProfiler>(*spec.profiler);
      group.SetProfiler(s, parts.profiler.get());
    }
    if (spec.spans.has_value()) {
      parts.spans = std::make_unique<obs::SpanCollector>(*spec.spans);
      parts.spans->SetTrace(spec.trace);
      front.SetSpanCollector(parts.spans.get());
      group.SetSpanCollector(s, parts.spans.get());
    }
    if (spec.slo.has_value()) {
      parts.slo = std::make_unique<obs::SloEvaluator>(*spec.slo);
      parts.slo->SetTrace(spec.trace, static_cast<int32_t>(s));
      front.SetSloEvaluator(parts.slo.get());
      group.SetSloEvaluator(s, parts.slo.get());
    }
    if (spec.exemplars.has_value()) {
      parts.exemplars =
          std::make_unique<obs::ExemplarReservoir>(*spec.exemplars);
      parts.spans->SetExemplars(parts.exemplars.get());
      group.SetExemplar(s, parts.exemplars.get());
    }
  }
  return deployment;
}

Result<adapt::GroupReport> Deployment::Run() {
  YH_ASSIGN_OR_RETURN(adapt::GroupReport report, group_->Run());
  if (trace_ != nullptr) {
    trace_->DrainToSink();
  }
  for (const ShardParts& parts : shards_) {
    YH_RETURN_IF_ERROR(parts.front_end->status());
    if (parts.spans != nullptr) {
      YH_RETURN_IF_ERROR(parts.spans->VerifyExactness());
    }
    if (parts.exemplars != nullptr) {
      YH_RETURN_IF_ERROR(parts.exemplars->VerifyExactness());
    }
  }
  return report;
}

obs::DiffEngine BuildDiffEngine(const Deployment& deployment,
                                const adapt::GroupReport& report,
                                const std::vector<obs::TraceEvent>& events) {
  obs::DiffEngine engine;
  for (size_t s = 0; s < deployment.shards(); ++s) {
    engine.AddShard(deployment.profiler(s), deployment.spans(s));
  }
  // Only guard ACTIONS can flip the diagnosed cause; SLO alerts are symptoms
  // that join the report without flipping it.
  for (const adapt::GuardEvent& event : report.guard_log) {
    if (const auto kind = ControlKind(event.kind)) {
      obs::ControlEvent control;
      control.kind = *kind;
      control.epoch = event.epoch;
      control.shard = event.shard;
      control.generation_id = event.generation_id;
      engine.AddControlEvent(control);
    }
  }
  for (const obs::TraceEvent& event : events) {
    if (event.type != obs::TraceEventType::kSloAlertFire &&
        event.type != obs::TraceEventType::kSloAlertClear) {
      continue;
    }
    obs::ControlEvent control;
    control.kind = event.type == obs::TraceEventType::kSloAlertFire
                       ? obs::ControlEvent::Kind::kSloAlertFire
                       : obs::ControlEvent::Kind::kSloAlertClear;
    control.shard = event.ctx_id >= 0 ? static_cast<size_t>(event.ctx_id) : 0;
    control.cycle = event.cycle;
    auto mapped = engine.EpochForCycle(control.shard, event.cycle);
    if (mapped.ok()) {
      control.epoch = mapped.value();
      engine.AddControlEvent(control);
    }
  }
  return engine;
}

}  // namespace yieldhide::serve
