// C7 — instrumentation-policy trade-off (§3.2): "aggressive instrumentation
// minimizes CPU stalls due to uninstrumented cache misses, at the risk of
// incurring unnecessary overhead if a load turns out to be a cache hit."
//
// Workload: btree lookups, whose node load has a per-level miss probability
// strictly between 0 and 1 (upper levels cache, leaves miss) — so a single
// threshold knob genuinely trades hidden stalls against wasted yields.
//
// Sweeps the miss-probability threshold and reports, per setting: sites
// instrumented, throughput, stalls remaining, and wasted yields (yields taken
// whose prefetch was useless because the line was already cached). Also
// prints the expected-benefit policy as the model-driven point on the curve.
#include "bench/bench_util.h"
#include "src/workloads/btree_lookup.h"

namespace yieldhide::bench {
namespace {

workloads::BtreeLookup MakeTree() {
  workloads::BtreeLookup::Config wc;
  wc.num_keys = 1 << 18;  // 8 MiB of nodes: upper levels cache, leaves miss
  wc.lookups_per_task = 600;
  wc.num_tasks = 64;
  return workloads::BtreeLookup::Make(wc).value();
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("C7", "yield-placement policy sweep on btree lookups");
  JsonWriter json("C7", argc, argv);
  auto workload = MakeTree();
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();
  const int kGroup = 16;
  const double ops = static_cast<double>(workload.config().lookups_per_task) * kGroup;

  Table table({"policy", "sites", "cycles/op", "stall%", "switch%", "useless_pf%"});
  table.PrintHeader();

  auto run_with = [&](const std::string& name, core::PipelineConfig config) {
    auto artifacts = core::BuildInstrumentedForWorkload(workload, config).value();
    sim::Machine machine(machine_config);
    workload.InitMemory(machine.memory());
    runtime::RoundRobinScheduler sched(&artifacts.binary, &machine);
    for (int i = 0; i < kGroup; ++i) {
      sched.AddCoroutine(workload.SetupFor(i));
    }
    auto run = sched.Run(2'000'000'000ull);
    CheckResults(run, workload, machine.memory(), kGroup);
    const runtime::RunReport& report = run.value();
    const auto& hs = machine.hierarchy().stats();
    const double useless =
        hs.prefetches_issued + hs.prefetches_useless == 0
            ? 0.0
            : 100.0 * hs.prefetches_useless /
                  static_cast<double>(hs.prefetches_issued + hs.prefetches_useless);
    table.PrintRow({name,
                    StrFormat("%zu", artifacts.primary_report.instrumented_loads.size()),
                    Fmt("%.1f", report.total_cycles / ops),
                    Fmt("%.1f", 100 * report.StallFraction()),
                    Fmt("%.1f", 100 * report.SwitchFraction()), Fmt("%.1f", useless)});
    json.Add(name,
             {{"sites", static_cast<double>(
                            artifacts.primary_report.instrumented_loads.size())},
              {"cycles_per_op", report.total_cycles / ops},
              {"stall_fraction", report.StallFraction()},
              {"switch_fraction", report.SwitchFraction()},
              {"useless_prefetch_pct", useless}});
  };

  // Baseline: no instrumentation at all.
  {
    auto config = BenchPipeline();
    config.primary.policy = instrument::PrimaryPolicy::kMissThreshold;
    config.primary.miss_probability_threshold = 2.0;  // impossible: no sites
    run_with("none", config);
  }
  for (double threshold : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8}) {
    auto config = BenchPipeline();
    config.primary.policy = instrument::PrimaryPolicy::kMissThreshold;
    config.primary.miss_probability_threshold = threshold;
    config.primary.min_miss_probability = 0.01;
    run_with(StrFormat("thresh=%.2f", threshold), config);
  }
  {
    auto config = BenchPipeline();
    config.primary.policy = instrument::PrimaryPolicy::kExpectedBenefit;
    config.primary.min_miss_probability = 0.01;
    run_with("exp-benefit", config);
  }

  std::printf(
      "\nReading: high thresholds leave the leaf misses exposed (stalls stay\n"
      "at the baseline's level); permissive settings also instrument the\n"
      "low-miss-rate cursor load — many useless prefetches, but in a deep\n"
      "ring the extra switches largely overlap other coroutines' work, so\n"
      "dense instrumentation still edges out. The expected-benefit model\n"
      "lands at the knee without hand tuning but is deliberately\n"
      "conservative: it prices a switch as pure overhead, while at high\n"
      "concurrency part of that cost hides behind peers — a modelling gap\n"
      "the paper's 'different policies' discussion anticipates.\n");
  json.Flush();
  return 0;
}
