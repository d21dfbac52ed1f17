// R1 — fault matrix: graceful degradation of the profile→instrument→run
// pipeline under injected profile corruption and binary drift.
//
// Scenario: the C5 asymmetric setup — latency-sensitive pointer-chase
// primary (every instrumented yield corresponds to a true DRAM miss, so the
// wall-clock bound below is well-posed: clean instrumentation trades stall
// cycles for equal-length scavenger bursts and stays near baseline) colocated
// with a compute-heavy scavenger pool. The profile driving instrumentation
// is damaged before the passes see it. For every fault class at severities
// {0.3, 0.6, 1.0} we instrument against the damaged profile and run:
//   * quarantine OFF — every placed yield is taken, however useless;
//   * quarantine ON  — the runtime tracks per-site hide efficiency and stops
//                      taking yields at sites that keep paying switches for
//                      already-fast loads.
// Both are compared against the uninstrumented baseline (the same binary run
// primary-alone). The robustness contract (docs/ROBUSTNESS.md): no fault may
// crash the pipeline or fail verification silently, and with quarantine ON
// the run must end within 1.15x of the uninstrumented baseline. The clean
// row must keep its CPU-efficiency win (scavengers soaking up miss cycles).
//
// kStaleBinary is the one class injected on the *binary* side: the program
// drifts (DriftProgram) while the profile stays as collected, so profile
// addresses name the wrong instructions. All other classes corrupt the
// aggregated profile (CorruptProfile) against the unchanged binary.
//
// Exit code is non-zero if any quarantine-ON row misses the 1.15x bound —
// the driver treats this bench as a pass/fail robustness gate.
#include "bench/bench_util.h"
#include "src/faultinject/drift.h"
#include "src/faultinject/fault.h"
#include "src/faultinject/profile_faults.h"
#include "src/runtime/dual_mode.h"
#include "src/workloads/pointer_chase.h"

namespace yieldhide::bench {
namespace {

constexpr int kRequests = 32;
constexpr uint64_t kChaseSteps = 400;
constexpr double kSlowdownBound = 1.15;

struct DualOutcome {
  bool ok = false;
  uint64_t total_cycles = 0;
  double efficiency = 0.0;
  uint64_t sites_quarantined = 0;
  size_t sites_tracked = 0;
};

DualOutcome RunDual(const workloads::SimWorkload& workload,
                    const instrument::InstrumentedProgram& primary,
                    const instrument::InstrumentedProgram& batch,
                    const sim::MachineConfig& machine_config, bool with_factory,
                    bool quarantine) {
  sim::Machine machine(machine_config);
  workload.InitMemory(machine.memory());
  runtime::DualModeConfig dm;
  dm.max_scavengers = 4;
  dm.hide_window_cycles = 300;
  dm.site_quarantine = quarantine;
  runtime::DualModeScheduler sched(&primary, &batch, &machine, dm);
  for (int i = 0; i < kRequests; ++i) {
    sched.AddPrimaryTask(workload.SetupFor(i));
  }
  if (with_factory) {
    sched.SetScavengerFactory(BatchFactory());
  }
  auto report = sched.Run();
  DualOutcome out;
  if (!report.ok()) {
    std::fprintf(stderr, "dual run failed: %s\n", report.status().ToString().c_str());
    return out;
  }
  out.ok = true;
  out.total_cycles = report->run.total_cycles;
  out.efficiency = report->CpuEfficiency();
  out.sites_quarantined = report->sites_quarantined;
  out.sites_tracked = report->site_stats.size();
  return out;
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("R1", "fault matrix: pipeline degradation under profile/binary faults");
  JsonWriter json("R1", argc, argv);
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();

  workloads::PointerChase::Config wc;
  wc.num_nodes = 1 << 17;
  wc.steps_per_task = kChaseSteps;
  auto chase = workloads::PointerChase::Make(wc).value();
  auto pipeline = BenchPipeline();

  // One clean profiling run; every fault row corrupts a copy of this profile
  // (or drifts the binary out from under it).
  auto clean = core::BuildInstrumentedForWorkload(chase, pipeline).value();
  const isa::Program& original = chase.program();
  auto batch = MakeScavengedBatch(machine_config);
  std::printf("clean pipeline: %s\n\n", clean.Summary().c_str());

  // Uninstrumented baseline: manual-annotated original (no yields), primary
  // alone. This is the runtime every degraded configuration is held to.
  const auto baseline_binary = runtime::AnnotateManualYields(original, machine_config.cost);
  const DualOutcome baseline = RunDual(chase, baseline_binary, batch, machine_config,
                                       /*with_factory=*/false, /*quarantine=*/false);
  if (!baseline.ok) {
    return 2;
  }

  Table table({"fault", "yields", "gate_q", "skid_rj", "verify", "off_x", "on_x",
               "run_q", "eff_on", "verdict"});
  table.PrintHeader();
  table.PrintRow({"baseline", "0", "-", "-", "-", "1.00", "1.00", "-",
                  Fmt("%.3f", baseline.efficiency), "-"});
  json.Add("baseline", {{"cycles", static_cast<double>(baseline.total_cycles)},
                        {"efficiency", baseline.efficiency}});

  Gates gate("R1");

  // One matrix row: instrument `target` against `profile`, run quarantine
  // off/on, compare to `base_cycles`.
  auto run_row = [&](const std::string& label, const isa::Program& target,
                     profile::ProfileData profile, uint64_t base_cycles) {
    std::string verify = "ok";
    instrument::PrimaryReport primary_report;
    instrument::InstrumentedProgram binary;
    auto artifacts = core::InstrumentFromProfile(target, std::move(profile), pipeline);
    if (artifacts.ok()) {
      primary_report = artifacts->primary_report;
      binary = std::move(artifacts->binary);
    } else {
      // Never silent: report the failure and fall back to running the target
      // uninstrumented — degraded but correct.
      std::fprintf(stderr, "%s: instrumentation rejected (%s); running uninstrumented\n",
                   label.c_str(), artifacts.status().ToString().c_str());
      verify = "FALLBACK";
      binary = runtime::AnnotateManualYields(target, machine_config.cost);
    }

    const DualOutcome off = RunDual(chase, binary, batch, machine_config,
                                    /*with_factory=*/true, /*quarantine=*/false);
    const DualOutcome on = RunDual(chase, binary, batch, machine_config,
                                   /*with_factory=*/true, /*quarantine=*/true);
    if (!off.ok || !on.ok) {
      table.PrintRow({label, "-", "-", "-", "CRASH", "-", "-", "-", "-",
                      gate.Record(false)});
      return;
    }
    const double off_x = static_cast<double>(off.total_cycles) / base_cycles;
    const double on_x = static_cast<double>(on.total_cycles) / base_cycles;
    const bool within = on_x <= kSlowdownBound;
    json.Add(label, {{"off_x", off_x},
                     {"on_x", on_x},
                     {"efficiency_on", on.efficiency},
                     {"yields", static_cast<double>(binary.yields.size())},
                     {"sites_quarantined", static_cast<double>(on.sites_quarantined)},
                     {"within_bound", within ? 1.0 : 0.0}});
    table.PrintRow(
        {label, std::to_string(binary.yields.size()),
         std::to_string(primary_report.quarantined_loads.size()),
         std::to_string(primary_report.skid_rejected), verify,
         Fmt("%.3f", off_x), Fmt("%.3f", on_x),
         StrFormat("%llu/%zu", (unsigned long long)on.sites_quarantined, on.sites_tracked),
         Fmt("%.3f", on.efficiency), gate.Record(within)});
  };

  // Clean row: the fault-free pipeline must keep its efficiency win and stay
  // within the same runtime bound (yields hide real misses, so the switch
  // cost trades against stall cycles the baseline pays anyway).
  run_row("clean", original, clean.profile, baseline.total_cycles);

  const double severities[] = {0.3, 0.6, 1.0};
  const faultinject::FaultClass classes[] = {
      faultinject::FaultClass::kIpAlias, faultinject::FaultClass::kSkidStorm,
      faultinject::FaultClass::kBufferDrop, faultinject::FaultClass::kPeriodAlias,
      faultinject::FaultClass::kStaleBinary};

  for (const faultinject::FaultClass fault : classes) {
    for (const double severity : severities) {
      faultinject::FaultSpec spec;
      spec.fault = fault;
      spec.severity = severity;
      spec.seed = 0x51u + static_cast<uint64_t>(severity * 100);
      const std::string label =
          StrFormat("%s:%.1f", faultinject::FaultClassName(fault), severity);

      if (fault == faultinject::FaultClass::kStaleBinary) {
        // Binary-side fault: the program drifts, the profile stays as
        // collected. The baseline is the drifted binary itself — that is
        // what production would run uninstrumented.
        faultinject::DriftConfig dc;
        dc.severity = severity;
        dc.seed = spec.seed;
        auto drifted = faultinject::DriftProgram(original, dc);
        if (!drifted.ok()) {
          std::fprintf(stderr, "%s: drift failed: %s\n", label.c_str(),
                       drifted.status().ToString().c_str());
          gate.Record(false);
          continue;
        }
        std::printf("  [%s] %s\n", label.c_str(), drifted->report.ToString().c_str());
        const auto drift_baseline =
            RunDual(chase, runtime::AnnotateManualYields(drifted->program, machine_config.cost),
                    batch, machine_config, /*with_factory=*/false, /*quarantine=*/false);
        if (!drift_baseline.ok) {
          gate.Record(false);
          continue;
        }
        run_row(label, drifted->program, clean.profile, drift_baseline.total_cycles);
      } else {
        run_row(label, original,
                faultinject::CorruptProfile(clean.profile, spec,
                                            static_cast<isa::Addr>(original.size())),
                baseline.total_cycles);
      }
    }
  }

  std::printf(
      "\nReading: off_x/on_x = total run cycles vs the uninstrumented\n"
      "baseline with quarantine off/on. gate_q = sites the instrumenter's\n"
      "confidence gate refused; run_q = sites the runtime quarantined after\n"
      "watching their hide efficiency. A damaged profile may cost cycles with\n"
      "quarantine off (every misplaced yield pays a switch plus a %u-cycle\n"
      "scavenger burst for a load that was never slow); with quarantine on\n"
      "every row must stay within %.2fx of baseline. The clean row keeps its\n"
      "efficiency win: quarantine never fires on yields that hide real misses.\n",
      300u, kSlowdownBound);
  json.Flush();
  return gate.Finish();
}
