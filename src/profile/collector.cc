#include "src/profile/collector.h"

namespace yieldhide::profile {

CollectorConfig CollectorForPeriod(uint64_t l2_miss_period) {
  CollectorConfig config;
  config.l2_miss_period = l2_miss_period;
  config.stall_cycles_period = l2_miss_period * 7;
  config.retired_period = l2_miss_period * 2 + 1;
  config.period_jitter = 0.1;
  return config;
}

pmu::SessionConfig MakeSessionConfig(const CollectorConfig& config) {
  pmu::SessionConfig session;
  auto add = [&](pmu::HwEvent event, uint64_t period) {
    if (period == 0) {
      return;
    }
    pmu::PebsConfig pc;
    pc.event = event;
    pc.period = period;
    pc.period_jitter = config.period_jitter;
    pc.max_skid = config.max_skid;
    pc.skid_probability = config.skid_probability;
    pc.buffer_capacity = config.buffer_capacity;
    pc.seed = config.seed + static_cast<uint64_t>(event) * 7919;
    session.pebs.push_back(pc);
  };
  add(pmu::HwEvent::kLoadsL1Miss, config.l1_miss_period);
  add(pmu::HwEvent::kLoadsL2Miss, config.l2_miss_period);
  add(pmu::HwEvent::kLoadsL3Miss, config.l3_miss_period);
  add(pmu::HwEvent::kStallCycles, config.stall_cycles_period);
  add(pmu::HwEvent::kRetiredInstructions, config.retired_period);
  session.enable_lbr = config.enable_lbr;
  return session;
}

SamplePeriods MakeSamplePeriods(const CollectorConfig& config) {
  SamplePeriods periods;
  periods.l1_miss = config.l1_miss_period;
  periods.l2_miss = config.l2_miss_period;
  periods.l3_miss = config.l3_miss_period;
  periods.stall_cycles = config.stall_cycles_period;
  periods.retired = config.retired_period;
  return periods;
}

Result<CollectResult> CollectProfile(const isa::Program& program, sim::Machine& machine,
                                     const std::function<void(sim::CpuContext&)>& setup,
                                     const CollectorConfig& config) {
  YH_RETURN_IF_ERROR(program.Validate());

  pmu::SamplingSession session(MakeSessionConfig(config));
  // Attach on a scratch listener set so we can restore afterwards.
  sim::MulticastListener saved = machine.listeners();
  session.AttachTo(machine);

  sim::Executor executor(&program, &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(program.entry());
  if (setup) {
    setup(ctx);
  }

  auto run = executor.RunToCompletion(ctx, config.max_instructions);
  machine.listeners() = saved;
  if (!run.ok()) {
    return run.status();
  }

  CollectResult result;
  result.run_cycles = run.value();
  result.run_instructions = ctx.instructions;
  result.sampling_overhead_fraction = session.OverheadFraction(result.run_cycles);
  result.profile.loads.AddSamples(session.DrainAllSamples(), MakeSamplePeriods(config),
                                  static_cast<isa::Addr>(program.size()),
                                  &result.sample_drops);
  result.profile.blocks.AddSnapshots(session.DrainLbrSnapshots());
  return result;
}

}  // namespace yieldhide::profile
