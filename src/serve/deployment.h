// Deployment: one serving scenario, open or closed loop, wired in one place
// (docs/SERVING.md).
//
// Serving the paper's deploy loop — an instrumented binary re-profiled online
// and hot-swapped by a ServerGroup — takes one machine per shard, the group,
// the shards' traffic, and whichever observers the caller watches with, each
// attached to the group and each other. Deployment builds all of it from a
// workload, the stale build and two whole config structs. Traffic is open
// loop by default: a ShardFrontEnd per shard admits seeded arrivals. A spec
// with `closed_loop` instead queues each shard's slice of the workload's
// tasks up front, and Run() checks every task's result. The rules every
// caller shares are derived here, not configured:
//   * shard s draws arrivals from seed front_end.arrival.seed + s and
//     namespaces its request ids with the same value;
//   * closed loop, shard s serves tasks [first + s*n, first + (s+1)*n) for
//     first = first_task and n = tasks_per_shard; without a batch job its
//     scavengers serve further requests from task first + shards*n + s*100000
//     on, on the served binary, so they swap with it;
//   * metric series carry shard=<s> only when there is more than one shard;
//   * front ends publish through the group's trace recorder and registry;
//   * with a stable twin, foreground tenants are served from it while
//     background tenants serve the workload itself (the noisy-neighbor shape).
#ifndef YIELDHIDE_SRC_SERVE_DEPLOYMENT_H_
#define YIELDHIDE_SRC_SERVE_DEPLOYMENT_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/adapt/server_group.h"
#include "src/core/pipeline.h"
#include "src/obs/diff/diff.h"
#include "src/obs/exemplar/exemplar.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"
#include "src/serve/front_end.h"
#include "src/sim/machine.h"
#include "src/workloads/phased_chase.h"
#include "src/workloads/workload.h"

namespace yieldhide::serve {

// Closed-loop traffic: a fixed slice of tasks per shard (see the file
// comment for which).
struct ClosedLoopSource {
  int tasks_per_shard = 0;
  int first_task = 0;
  // An unrelated batch job on the scavenger slots: its binary, never swapped,
  // and its coroutine factory, copied into every shard. Set both or neither;
  // with neither, scavengers serve further workload requests.
  const instrument::InstrumentedProgram* batch = nullptr;
  runtime::DualModeScheduler::ScavengerFactory batch_factory;
};

struct DeploymentSpec {
  adapt::ServerGroupConfig group;
  // Shared by every shard's front end. arrival.seed is the base seed (see the
  // file comment); id_seed is derived and must be left 0.
  FrontEndConfig front_end;
  // Serves closed loop when set: no front end is built, so `front_end` goes
  // unused and nothing that needs one (stable, spans, slo, exemplars,
  // tenant_slos) may be named.
  std::optional<ClosedLoopSource> closed_loop;
  // Serves every foreground tenant when set. It must share the workload's
  // program and memory layout: the machines hold the workload's image.
  const workloads::SimWorkload* stable = nullptr;

  // Observers. The recorder and the registry (either may be null) are shared
  // by the group and every front end.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Built once per shard when present.
  std::optional<obs::CycleProfilerConfig> profiler;
  std::optional<obs::SpanCollectorConfig> spans;
  std::optional<obs::SloConfig> slo;
  // Fed by the span collector, so it needs `spans`.
  std::optional<obs::ExemplarReservoirConfig> exemplars;
  // One SloEvaluator per tenant that declares a p99 budget, fed only that
  // tenant's completions.
  bool tenant_slos = false;
};

class Deployment {
 public:
  // Checks the spec — the first violated precondition is a named
  // InvalidArgument — then builds every part. `workload`, `spec.stable` and
  // the closed-loop batch binary must outlive the deployment; `spec.trace`
  // and `spec.metrics` must outlive Run() (nothing reads them afterwards).
  static Result<Deployment> Build(const workloads::SimWorkload& workload,
                                  core::PipelineArtifacts stale,
                                  const DeploymentSpec& spec);

  // Serves every shard's traffic to completion and flushes the recorder's
  // sink. Then checks each front end's status and the exactness of every
  // span collector and exemplar reservoir, or, closed loop, every task's
  // result on its shard's memory: a wrong one is an Internal error naming the
  // shard, the task, and the computed and expected values.
  Result<adapt::GroupReport> Run();

  size_t shards() const { return shards_.size(); }
  const sim::Machine& machine(size_t shard) const {
    return *shards_[shard].machine;
  }
  const adapt::AdaptController& controller() const {
    return group_->controller();
  }
  // Open loop only.
  const ShardFrontEnd& front_end(size_t shard) const {
    return *shards_[shard].front_end;
  }
  // Null when the spec does not name the observer. The mutable profiler is
  // for installing its trace sink between Build() and Run().
  obs::CycleProfiler* profiler(size_t shard) {
    return shards_[shard].profiler.get();
  }
  const obs::CycleProfiler* profiler(size_t shard) const {
    return shards_[shard].profiler.get();
  }
  const obs::SpanCollector* spans(size_t shard) const {
    return shards_[shard].spans.get();
  }
  const obs::SloEvaluator* slo(size_t shard) const {
    return shards_[shard].slo.get();
  }
  const obs::ExemplarReservoir* exemplars(size_t shard) const {
    return shards_[shard].exemplars.get();
  }

 private:
  struct ShardParts {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<ShardFrontEnd> front_end;
    std::unique_ptr<obs::CycleProfiler> profiler;
    std::unique_ptr<obs::SpanCollector> spans;
    std::unique_ptr<obs::SloEvaluator> slo;
    std::unique_ptr<obs::ExemplarReservoir> exemplars;
    std::vector<std::unique_ptr<obs::SloEvaluator>> tenant_slos;
  };

  Deployment() = default;

  Status CheckResults() const;

  const workloads::SimWorkload* workload_ = nullptr;
  std::optional<ClosedLoopSource> closed_loop_;
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<ShardParts> shards_;
  std::unique_ptr<adapt::ServerGroup> group_;
};

// The paper's drift experiment (docs/ONLINE.md): today's chase served from a
// stale build, instrumented through `pipeline` on yesterday's twin — today's
// config at severity 0, so every task runs phase A.
struct DriftScenario {
  workloads::PhasedChase twin;   // yesterday's traffic, which `stale` fits
  core::PipelineArtifacts stale;
  workloads::PhasedChase chase;  // today's traffic

  static Result<DriftScenario> Make(const workloads::PhasedChase::Config& today,
                                    const core::PipelineConfig& pipeline);
};

// The diagnosis input of a finished run (`yhc why`, bench O4): both cycle
// taxonomies per shard — the deployment must carry profilers and spans —
// plus the control-plane join. Guard decisions join by their group epoch;
// SLO alert fire/clear events from `events` (the drained trace stream) join
// by their cycle stamp, mapped onto the firing shard's epoch timeline.
obs::DiffEngine BuildDiffEngine(const Deployment& deployment,
                                const adapt::GroupReport& report,
                                const std::vector<obs::TraceEvent>& events);

}  // namespace yieldhide::serve

#endif  // YIELDHIDE_SRC_SERVE_DEPLOYMENT_H_
