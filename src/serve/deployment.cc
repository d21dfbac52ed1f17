#include "src/serve/deployment.h"

#include <utility>

#include "src/common/strings.h"
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

// A closed-loop spec has a task slice, a whole batch job or none, and no
// part that needs a front end.
Status ValidateClosedLoop(const DeploymentSpec& spec) {
  const ClosedLoopSource& loop = *spec.closed_loop;
  if (loop.tasks_per_shard < 1) {
    return InvalidArgumentError(
        "deployment: closed_loop.tasks_per_shard must be at least 1");
  }
  if (loop.batch != nullptr && !loop.batch_factory) {
    return InvalidArgumentError(
        "deployment: a closed-loop batch binary needs its batch_factory");
  }
  if (loop.batch == nullptr && loop.batch_factory) {
    return InvalidArgumentError(
        "deployment: a closed-loop batch_factory needs its batch binary");
  }
  const std::pair<bool, const char*> needs_front_end[] = {
      {spec.stable != nullptr, "stable"},
      {spec.spans.has_value(), "spans"},
      {spec.slo.has_value(), "slo"},
      {spec.exemplars.has_value(), "exemplars"},
      {spec.tenant_slos, "tenant_slos"},
  };
  for (const auto& [named, field] : needs_front_end) {
    if (named) {
      return InvalidArgumentError(StrFormat(
          "deployment: %s needs a front end, and closed-loop serving has none",
          field));
    }
  }
  return Status::Ok();
}

// The first of shard `s`'s tasks (the rules are in deployment.h's file
// comment).
int FirstTask(const ClosedLoopSource& loop, size_t s) {
  return loop.first_task + static_cast<int>(s) * loop.tasks_per_shard;
}

// Queues shard `s`'s task slice and picks its scavengers.
void LoadClosedLoopShard(const workloads::SimWorkload& workload,
                         const ClosedLoopSource& loop, size_t shards, size_t s,
                         adapt::ServerGroup& group) {
  const int first = FirstTask(loop, s);
  for (int task = first; task < first + loop.tasks_per_shard; ++task) {
    group.AddTask(s, workload.SetupFor(task));
  }
  if (loop.batch != nullptr) {
    group.SetScavengerBinary(s, loop.batch);
    group.SetScavengerFactory(s, loop.batch_factory);
    return;
  }
  int next = FirstTask(loop, shards) + static_cast<int>(s) * 100000;
  group.SetScavengerFactory(
      s, [&workload, next]() mutable
             -> std::optional<runtime::DualModeScheduler::ContextSetup> {
        return workload.SetupFor(next++);
      });
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
  if (spec.closed_loop.has_value()) {
    YH_RETURN_IF_ERROR(ValidateClosedLoop(spec));
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
  deployment.workload_ = &workload;
  deployment.closed_loop_ = spec.closed_loop;
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
    if (spec.profiler.has_value()) {
      parts.profiler = std::make_unique<obs::CycleProfiler>(*spec.profiler);
    }
    if (spec.spans.has_value()) {
      parts.spans = std::make_unique<obs::SpanCollector>(*spec.spans);
      parts.spans->SetTrace(spec.trace);
    }
    if (spec.slo.has_value()) {
      parts.slo = std::make_unique<obs::SloEvaluator>(*spec.slo);
      parts.slo->SetTrace(spec.trace, static_cast<int32_t>(s));
    }
    if (spec.exemplars.has_value()) {
      parts.exemplars =
          std::make_unique<obs::ExemplarReservoir>(*spec.exemplars);
      parts.spans->SetExemplars(parts.exemplars.get());
    }
    group.SetObservers(s, {parts.profiler.get(), parts.spans.get(),
                           parts.slo.get(), parts.exemplars.get()});
    if (spec.closed_loop.has_value()) {
      LoadClosedLoopShard(workload, *spec.closed_loop, shards, s, group);
      continue;
    }
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
    front.SetSpanCollector(parts.spans.get());
    front.SetSloEvaluator(parts.slo.get());
    group.SetRequestSource(s, &front);
    group.SetScavengerFactory(s, front.MakeScavengerFactory());
  }
  return deployment;
}

Result<adapt::GroupReport> Deployment::Run() {
  YH_ASSIGN_OR_RETURN(adapt::GroupReport report, group_->Run());
  if (trace_ != nullptr) {
    trace_->DrainToSink();
  }
  if (closed_loop_.has_value()) {
    YH_RETURN_IF_ERROR(CheckResults());
    return report;
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

Status Deployment::CheckResults() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const int first = FirstTask(*closed_loop_, s);
    for (int task = first; task < first + closed_loop_->tasks_per_shard;
         ++task) {
      const uint64_t got =
          workload_->ReadResult(shards_[s].machine->memory(), task);
      const uint64_t want = workload_->ExpectedResult(task);
      if (got != want) {
        return InternalError(StrFormat(
            "deployment: shard %zu task %d computed %llu, expected %llu", s,
            task, static_cast<unsigned long long>(got),
            static_cast<unsigned long long>(want)));
      }
    }
  }
  return Status::Ok();
}

Result<DriftScenario> DriftScenario::Make(
    const workloads::PhasedChase::Config& today,
    const core::PipelineConfig& pipeline) {
  workloads::PhasedChase::Config yesterday = today;
  yesterday.severity = 0.0;
  YH_ASSIGN_OR_RETURN(workloads::PhasedChase twin,
                      workloads::PhasedChase::Make(yesterday));
  YH_ASSIGN_OR_RETURN(core::PipelineArtifacts stale,
                      core::BuildInstrumentedForWorkload(twin, pipeline));
  YH_ASSIGN_OR_RETURN(workloads::PhasedChase chase,
                      workloads::PhasedChase::Make(today));
  return DriftScenario{std::move(twin), std::move(stale), std::move(chase)};
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
