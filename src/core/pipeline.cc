#include "src/core/pipeline.h"

#include "src/common/strings.h"
#include "src/isa/builder.h"

namespace yieldhide::core {

namespace {

// Publishes one build's artifact telemetry. Counters accumulate with Add so a
// registry shared across rebuilds (the online adaptation loop) shows totals;
// gauges describe the most recent build.
void PublishBuildMetrics(const PipelineConfig& config,
                         const PipelineArtifacts& artifacts) {
  obs::MetricsRegistry* metrics = config.metrics;
  if (metrics == nullptr) {
    return;
  }
  metrics->GetCounter("yh_pipeline_builds_total")->Increment();
  metrics->GetCounter("yh_pipeline_samples_accepted_total")
      ->Add(artifacts.sample_drops.accepted);
  metrics
      ->GetCounter("yh_pipeline_samples_dropped_total",
                   {{"reason", "out_of_range"}})
      ->Add(artifacts.sample_drops.dropped_out_of_range);
  metrics
      ->GetCounter("yh_pipeline_samples_dropped_total",
                   {{"reason", "unknown_event"}})
      ->Add(artifacts.sample_drops.dropped_unknown_event);
  metrics->GetCounter("yh_pipeline_sanitize_dropped_total", {{"kind", "sites"}})
      ->Add(artifacts.sanitize_report.sites_dropped);
  metrics->GetCounter("yh_pipeline_sanitize_dropped_total", {{"kind", "runs"}})
      ->Add(artifacts.sanitize_report.runs_dropped);
  metrics->GetCounter("yh_pipeline_sanitize_dropped_total", {{"kind", "edges"}})
      ->Add(artifacts.sanitize_report.edges_dropped);
  metrics->GetCounter("yh_pipeline_yields_inserted_total", {{"kind", "primary"}})
      ->Add(artifacts.primary_report.yields_inserted);
  metrics
      ->GetCounter("yh_pipeline_yields_inserted_total", {{"kind", "scavenger"}})
      ->Add(artifacts.scavenger_report.cyields_inserted);
  metrics->GetCounter("yh_pipeline_prefetches_inserted_total")
      ->Add(artifacts.primary_report.prefetches_inserted);
  metrics->GetCounter("yh_pipeline_loads_quarantined_total")
      ->Add(artifacts.primary_report.quarantined_loads.size());
  metrics->GetCounter("yh_pipeline_skid_rejected_total")
      ->Add(artifacts.primary_report.skid_rejected);
  metrics->GetGauge("yh_pipeline_profile_overhead_fraction")
      ->Set(artifacts.sampling_overhead_fraction);
  metrics->GetGauge("yh_pipeline_worst_interval_cycles")
      ->Set(artifacts.scavenger_report.worst_interval_after);
}

// Step (ii): both instrumentation passes plus verification, shared by the
// explicit-machine and workload entry points.
Status InstrumentWithProfile(const isa::Program& original, const PipelineConfig& config,
                             PipelineArtifacts& artifacts) {
  // A stale or corrupted profile can reference addresses this binary does
  // not have; drop those records (and remember how many) before the passes
  // ever see them.
  artifacts.sanitize_report = profile::SanitizeProfileData(
      artifacts.profile, static_cast<isa::Addr>(original.size()));

  YH_ASSIGN_OR_RETURN(instrument::PrimaryResult primary,
                      instrument::RunPrimaryPass(original, artifacts.profile.loads,
                                                 config.primary));
  artifacts.primary_report = std::move(primary.report);

  // Carry the block profile (collected on the original binary) across the
  // primary rewrite so the scavenger pass sees current addresses.
  const instrument::AddrMap& map = primary.instrumented.addr_map;
  const profile::BlockLatencyProfile translated = artifacts.profile.blocks.Translated(
      [&map](isa::Addr addr) {
        return addr < map.old_size() ? map.Translate(addr) : addr;
      });
  YH_ASSIGN_OR_RETURN(
      instrument::ScavengerResult scavenger,
      instrument::RunScavengerPass(primary.instrumented, &translated,
                                   config.scavenger));
  artifacts.scavenger_report = std::move(scavenger.report);
  artifacts.binary = std::move(scavenger.instrumented);

  instrument::VerifyOptions options;
  options.machine_cost = config.machine.cost;
  // The scavenger report carries the achieved interval bound; experiments
  // that need a hard bound assert it explicitly. Structure is always
  // enforced here.
  YH_RETURN_IF_ERROR(
      instrument::VerifyInstrumentation(original, artifacts.binary, options));
  PublishBuildMetrics(config, artifacts);
  return Status::Ok();
}

}  // namespace

void PipelineConfig::Finalize() {
  const instrument::YieldCostModel cost_model =
      instrument::YieldCostModel::FromMachine(machine.cost);
  primary.cost_model = cost_model;
  scavenger.cost_model = cost_model;
  scavenger.machine_cost = machine.cost;
  // The hideable window is what the scavenger pass guarantees other
  // coroutines will run before yielding back.
  primary.cost_model.hideable_window_cycles = scavenger.target_interval_cycles;
}

std::string PipelineArtifacts::Summary() const {
  std::string out = StrFormat(
      "profile: %s cycles, %s insns, overhead=%.3f%%\n%s\n%s\nfinal: %zu insns, %zu yields",
      WithCommas(profile_run_cycles).c_str(),
      WithCommas(profile_run_instructions).c_str(),
      100.0 * sampling_overhead_fraction, primary_report.ToString().c_str(),
      scavenger_report.ToString().c_str(), binary.program.size(), binary.yields.size());
  if (sample_drops.TotalDropped() > 0 || sanitize_report.AnythingDropped()) {
    out += "\ndegraded: " + sample_drops.ToString() + "; " + sanitize_report.ToString();
  }
  return out;
}

Result<PipelineArtifacts> BuildInstrumentedForWorkload(
    const workloads::SimWorkload& workload, const PipelineConfig& config) {
  sim::Machine machine(config.machine);
  workload.InitMemory(machine.memory());

  // Profile several tasks and merge, so the profile reflects steady-state
  // behaviour rather than one cold run.
  PipelineArtifacts artifacts;
  const int tasks = config.profile_tasks < 1 ? 1 : config.profile_tasks;
  for (int task = 0; task < tasks; ++task) {
    machine.ResetMicroarchState();
    YH_ASSIGN_OR_RETURN(
        profile::CollectResult collected,
        profile::CollectProfile(workload.program(), machine,
                                workload.SetupFor(task),
                                config.collector));
    artifacts.profile.loads.Merge(collected.profile.loads);
    artifacts.profile.blocks.Merge(collected.profile.blocks);
    artifacts.profile_run_cycles += collected.run_cycles;
    artifacts.profile_run_instructions += collected.run_instructions;
    artifacts.sampling_overhead_fraction +=
        collected.sampling_overhead_fraction / tasks;
    artifacts.sample_drops.accepted += collected.sample_drops.accepted;
    artifacts.sample_drops.dropped_out_of_range +=
        collected.sample_drops.dropped_out_of_range;
    artifacts.sample_drops.dropped_unknown_event +=
        collected.sample_drops.dropped_unknown_event;
  }

  YH_RETURN_IF_ERROR(InstrumentWithProfile(workload.program(), config, artifacts));
  return artifacts;
}

Result<PipelineArtifacts> InstrumentFromProfile(const isa::Program& original,
                                                profile::ProfileData profile,
                                                const PipelineConfig& config) {
  PipelineArtifacts artifacts;
  artifacts.profile = std::move(profile);
  YH_RETURN_IF_ERROR(InstrumentWithProfile(original, config, artifacts));
  return artifacts;
}

instrument::InstrumentedProgram MakeScavengedBatch(
    const sim::MachineConfig& machine) {
  isa::ProgramBuilder builder("alu_batch");
  auto loop = builder.Here("loop");
  for (int i = 0; i < 40; ++i) {
    builder.Addi(3, 3, 1);
    builder.Xor(4, 4, 3);
  }
  builder.Addi(2, 2, -1);
  builder.Bne(2, 0, loop);
  builder.Halt();
  instrument::InstrumentedProgram input;
  input.program = std::move(builder).Build().value();
  instrument::ScavengerConfig config;
  config.target_interval_cycles = 300;
  config.machine_cost = machine.cost;
  config.cost_model = instrument::YieldCostModel::FromMachine(machine.cost);
  return instrument::RunScavengerPass(input, nullptr, config).value().instrumented;
}

runtime::DualModeScheduler::ScavengerFactory BatchFactory() {
  return []() -> std::optional<runtime::DualModeScheduler::ContextSetup> {
    return [](sim::CpuContext& ctx) { ctx.regs[2] = 1'000'000; };
  };
}

}  // namespace yieldhide::core
