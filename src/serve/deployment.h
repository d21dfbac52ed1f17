// Deployment: one open-loop serving scenario, wired in one place
// (docs/SERVING.md).
//
// Serving the paper's deploy loop — an instrumented binary behind per-shard
// front ends, re-profiled online and hot-swapped by a ServerGroup — takes one
// machine per shard, the group, a ShardFrontEnd per shard, and whichever
// observers the caller watches with, each attached to the front end, the
// group and each other. Deployment builds all of it from a workload, the
// stale build and two whole config structs. The rules every caller shares
// are derived here, not configured:
//   * shard s draws arrivals from seed front_end.arrival.seed + s and
//     namespaces its request ids with the same value;
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
#include "src/workloads/workload.h"

namespace yieldhide::serve {

struct DeploymentSpec {
  adapt::ServerGroupConfig group;
  // Shared by every shard's front end. arrival.seed is the base seed (see the
  // file comment); id_seed is derived and must be left 0.
  FrontEndConfig front_end;
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
  // InvalidArgument — then builds every part. `workload` and `spec.stable`
  // must outlive the deployment; `spec.trace` and `spec.metrics` must outlive
  // Run() (nothing reads them afterwards).
  static Result<Deployment> Build(const workloads::SimWorkload& workload,
                                  core::PipelineArtifacts stale,
                                  const DeploymentSpec& spec);

  // Serves every shard's arrivals to completion, flushes the recorder's sink,
  // then checks each front end's status and the exactness of every span
  // collector and exemplar reservoir.
  Result<adapt::GroupReport> Run();

  size_t shards() const { return shards_.size(); }
  const sim::Machine& machine(size_t shard) const {
    return *shards_[shard].machine;
  }
  const ShardFrontEnd& front_end(size_t shard) const {
    return *shards_[shard].front_end;
  }
  // Null when the spec does not name the observer.
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

  obs::TraceRecorder* trace_ = nullptr;
  std::vector<ShardParts> shards_;
  std::unique_ptr<adapt::ServerGroup> group_;
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
