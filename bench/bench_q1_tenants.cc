// Q1 — multi-tenant QoS: per-tenant drift isolation under a noisy neighbor
// (docs/SERVING.md, docs/ONLINE.md).
//
// The scenario: two tenants share every shard of a guarded serving group.
//   victim     — foreground, 40% of the offered load, a declared p99 budget;
//                serves the STABLE workload the shipped instrumentation was
//                profiled for.
//   antagonist — background, 60% of the load; its stream has fully
//                phase-changed, so every one of its requests misses at sites
//                the stale binary never covered — each one it drags onto the
//                primary slot head-of-line blocks the victim behind it.
//
// Run the IDENTICAL load twice:
//   aware — per-tenant drift attribution on (tenant_drift_threshold > 0).
//           The antagonist's appearance drift is attributed to it alone, it
//           gets quarantined, its evidence leaves the shared store, its
//           drift never becomes swap appetite, and the quarantine DEMOTES it
//           to scavenger-only service — off the primary slot, out of the
//           victim's way.
//   blind — the same tenants, ledgers, and arrivals, but tenant drift
//           isolation off. The antagonist's drift blends into the epoch
//           evidence and drives group-wide adaptation — rebuilds and swap
//           churn the victim never asked for — while its slow requests keep
//           head-of-line blocking the victim on the primary slot.
//
// Gates:
//   * aware: the antagonist is quarantined at least once and the group
//     performs ZERO swaps — the victim's generation is untouched;
//   * blind: the same drift DOES drive swaps (the churn is real, not a
//     strawman);
//   * the victim's p99 stays within its declared budget in the aware run and
//     violates it in the blind run — isolation is visible in the tail, not
//     just in the guard counters;
//   * per-tenant conservation ledgers hold exactly on every shard in both
//     runs, and the tenant ledgers sum to the front-end ledger counter for
//     counter;
//   * a fixed seed is deterministic: rerunning the aware scenario reproduces
//     every victim counter and quantile bit for bit.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/adapt/server_group.h"
#include "src/serve/deployment.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr uint64_t kChaseNodes = 1 << 16;
constexpr uint64_t kChaseSteps = 300;
constexpr size_t kShards = 2;
constexpr int kTasksPerEpoch = 4;
constexpr double kRate = 0.028;           // requests per kilocycle, per shard
constexpr uint64_t kDuration = 4'000'000;
constexpr size_t kQueueCapacity = 32;
constexpr uint64_t kSeed = 7;
constexpr double kSeverity = 1.0;        // antagonist: full phase change
constexpr double kDriftThreshold = 0.25; // controller swap appetite
constexpr double kTenantDrift = 0.3;     // per-tenant quarantine threshold
// The victim's declared end-to-end p99 budget, in cycles. Calibrated so the
// aware run (queueing behind a well-behaved group) sits inside it and the
// blind run's swap churn does not.
constexpr uint64_t kVictimBudget = 600'000;

struct ScenarioOutcome {
  adapt::GroupReport group;
  std::vector<serve::FrontEndReport> fronts;
};

// Max victim p99 across shards: the number the budget gates against.
uint64_t VictimP99(const ScenarioOutcome& outcome) {
  uint64_t worst = 0;
  for (const serve::FrontEndReport& fr : outcome.fronts) {
    worst = std::max(worst, fr.tenants[0].latency.P99());
  }
  return worst;
}

int TotalSwaps(const ScenarioOutcome& outcome) {
  int swaps = 0;
  for (const adapt::AdaptReport& shard : outcome.group.shards) {
    swaps += shard.swaps;
  }
  return swaps;
}

// One full run of the antagonist scenario on fresh machines. Everything is
// identical between the aware and blind runs except tenant_drift_threshold.
Result<ScenarioOutcome> RunScenario(const workloads::PhasedChase& drifted,
                                    const workloads::PhasedChase& twin,
                                    const core::PipelineArtifacts& stale,
                                    const core::PipelineConfig& pipeline,
                                    bool tenant_aware) {
  serve::DeploymentSpec spec;
  adapt::ServerGroupConfig& config = spec.group;
  config.shards = kShards;
  config.shard = ShardConfig(pipeline, kTasksPerEpoch);
  config.shard.controller.drift_threshold = kDriftThreshold;
  config.shard.adapt_enabled = true;
  config.shard.scale_pool = true;
  config.guard.enabled = true;
  config.guard.confirmation_window = 3;
  config.guard.regression_ratio = 2.5;
  config.tenant_drift_threshold = tenant_aware ? kTenantDrift : 0.0;

  serve::TenantSpec victim;
  victim.name = "victim";
  victim.share = 0.4;
  victim.p99_budget_cycles = kVictimBudget;
  serve::TenantSpec antagonist;
  antagonist.name = "antagonist";
  antagonist.priority = serve::TenantSpec::Class::kBackground;
  antagonist.share = 0.6;
  serve::FrontEndConfig& fe = spec.front_end;
  fe.arrival.kind = serve::ArrivalConfig::Kind::kPoisson;
  fe.arrival.rate_per_kcycle = kRate;
  fe.arrival.horizon_cycles = kDuration;
  fe.arrival.seed = kSeed;
  fe.queue_capacity = kQueueCapacity;
  fe.tenants = {victim, antagonist};
  // The victim (foreground) serves the stable twin the instrumentation was
  // built for; the antagonist keeps the drifting workload. No per-tenant SLO
  // evaluator rides along: its modeled cost would move the measured tail.
  spec.stable = &twin;

  YH_ASSIGN_OR_RETURN(serve::Deployment deployment,
                      serve::Deployment::Build(drifted, stale, spec));
  ScenarioOutcome outcome;
  YH_ASSIGN_OR_RETURN(outcome.group, deployment.Run());
  for (size_t s = 0; s < kShards; ++s) {
    outcome.fronts.push_back(deployment.front_end(s).report());
    if (outcome.fronts.back().tenants.size() != 2) {
      return InternalError("front end lost a tenant ledger");
    }
  }
  return outcome;
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("Q1", "multi-tenant QoS: drift isolation under a noisy neighbor");
  JsonWriter json("Q1", argc, argv);
  Gates gate("Q1");

  workloads::PhasedChase::Config today;
  today.num_nodes = kChaseNodes;
  today.steps_per_task = kChaseSteps;
  today.severity = kSeverity;
  today.flip_task_index = 0;
  const auto pipeline = BenchPipeline();
  auto scenario = serve::DriftScenario::Make(today, pipeline);
  if (!scenario.ok()) {
    std::fprintf(stderr, "instrumentation failed: %s\n",
                 scenario.status().ToString().c_str());
    return 2;
  }
  const workloads::PhasedChase& twin = scenario->twin;
  const workloads::PhasedChase& drifted = scenario->chase;
  const core::PipelineArtifacts& stale = scenario->stale;

  auto aware = RunScenario(drifted, twin, stale, pipeline, true);
  auto blind = RunScenario(drifted, twin, stale, pipeline, false);
  if (!aware.ok() || !blind.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 (!aware.ok() ? aware : blind).status().ToString().c_str());
    return 2;
  }

  Table table({"run", "tenant", "offered", "shed", "completed", "p50", "p99",
               "ledger"});
  table.PrintHeader();
  for (const auto* outcome : {&*aware, &*blind}) {
    const char* run = outcome == &*aware ? "aware" : "blind";
    for (size_t t = 0; t < 2; ++t) {
      uint64_t offered = 0, shed = 0, completed = 0;
      uint64_t p50 = 0, p99 = 0;
      for (const serve::FrontEndReport& fr : outcome->fronts) {
        offered += fr.tenants[t].counters.offered;
        shed += fr.tenants[t].counters.shed;
        completed += fr.tenants[t].counters.completed;
        p50 = std::max(p50, fr.tenants[t].latency.P50());
        p99 = std::max(p99, fr.tenants[t].latency.P99());
      }
      bool ledgers = true;
      for (const serve::FrontEndReport& fr : outcome->fronts) {
        ledgers = ledgers && fr.ConservationHolds() &&
                  fr.TenantLedgersConsistent();
      }
      gate.Record(ledgers);
      table.PrintRow({run, outcome->fronts[0].tenants[t].spec.name,
                      std::to_string(offered), std::to_string(shed),
                      std::to_string(completed), FmtU(p50), FmtU(p99),
                      ledgers ? "ok" : "BROKEN"});
    }
  }

  // Gate 1: aware — the antagonist is quarantined and the group swaps ZERO
  // times; the victim's serving generation is untouched end to end.
  const bool aware_isolated =
      aware->group.tenant_quarantines >= 1 && TotalSwaps(*aware) == 0;
  std::printf("\n  aware: quarantines=%d swaps=%d -> %s\n",
              aware->group.tenant_quarantines, TotalSwaps(*aware),
              gate.Record(aware_isolated));

  // Gate 2: blind — the identical drift drives group-wide swaps, so the
  // churn the aware run suppressed is real.
  const bool blind_churns = TotalSwaps(*blind) >= 1;
  std::printf("  blind: swaps=%d (>= 1) -> %s\n", TotalSwaps(*blind),
              gate.Record(blind_churns));

  // Gate 3: the victim's declared p99 budget holds with isolation and breaks
  // without it — the win is visible in the tail.
  const uint64_t aware_p99 = VictimP99(*aware);
  const uint64_t blind_p99 = VictimP99(*blind);
  const bool budget_ok = aware_p99 <= kVictimBudget;
  const bool blind_violates = blind_p99 > kVictimBudget;
  std::printf("  victim p99: aware %s <= budget %s -> %s\n",
              FmtU(aware_p99).c_str(), FmtU(kVictimBudget).c_str(),
              gate.Record(budget_ok));
  std::printf("  victim p99: blind %s >  budget %s -> %s\n",
              FmtU(blind_p99).c_str(), FmtU(kVictimBudget).c_str(),
              gate.Record(blind_violates));

  // Gate 4: determinism — the aware scenario reruns bit-identically.
  auto rerun = RunScenario(drifted, twin, stale, pipeline, true);
  if (!rerun.ok()) {
    std::fprintf(stderr, "determinism rerun failed: %s\n",
                 rerun.status().ToString().c_str());
    return 2;
  }
  bool deterministic =
      rerun->group.tenant_quarantines == aware->group.tenant_quarantines &&
      TotalSwaps(*rerun) == TotalSwaps(*aware) &&
      VictimP99(*rerun) == aware_p99;
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t t = 0; t < 2; ++t) {
      const serve::FrontEndCounters& a = aware->fronts[s].tenants[t].counters;
      const serve::FrontEndCounters& b = rerun->fronts[s].tenants[t].counters;
      deterministic = deterministic && a.offered == b.offered &&
                      a.admitted == b.admitted && a.shed == b.shed &&
                      a.completed == b.completed &&
                      aware->fronts[s].tenants[t].latency.P99() ==
                          rerun->fronts[s].tenants[t].latency.P99();
    }
  }
  gate.Record(deterministic);
  std::printf("  determinism: aware rerun %s\n",
              deterministic ? "bit-identical per-tenant ledgers (pass)"
                            : "DIVERGED (FAIL)");

  json.Add("aware",
           {{"quarantines", static_cast<double>(aware->group.tenant_quarantines)},
            {"swaps", static_cast<double>(TotalSwaps(*aware))},
            {"victim_p99", static_cast<double>(aware_p99)}});
  json.Add("blind", {{"swaps", static_cast<double>(TotalSwaps(*blind))},
                     {"victim_p99", static_cast<double>(blind_p99)}});
  json.Add("gates", {{"aware_isolated", aware_isolated ? 1.0 : 0.0},
                     {"blind_churns", blind_churns ? 1.0 : 0.0},
                     {"budget_holds", budget_ok ? 1.0 : 0.0},
                     {"blind_violates", blind_violates ? 1.0 : 0.0},
                     {"deterministic", deterministic ? 1.0 : 0.0},
                     {"victim_budget", static_cast<double>(kVictimBudget)}});

  std::printf(
      "\nReading: identical arrivals, identical tenants — only the drift\n"
      "attribution differs. Attributing appearance drift per tenant lets the\n"
      "group quarantine the antagonist: its evidence leaves the shared\n"
      "store, and the quarantine demotes it to scavenger-only service, so\n"
      "its never-adapted-for requests stop head-of-line blocking the victim\n"
      "on the primary slot. The tenant-blind group adapts the whole binary\n"
      "to the antagonist's phase instead; the victim pays for the churn in\n"
      "its tail.\n");
  json.Flush();
  return gate.Finish();
}
