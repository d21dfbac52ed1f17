// C10 — sampling-frequency trade-off (§3.2): "higher sampling frequency
// expedites profile collections at the cost of higher run time overhead",
// plus PEBS skid sensitivity.
//
// Sweeps the L2-miss sampling period on a two-site workload (one hot miss
// load, one cold) and reports: modeled profiling overhead, the estimated
// miss probability at the hot site vs ground truth, whether the top-stall
// ranking is correct, and how many sites the primary pass would instrument.
// A second table injects IP skid and shows the binary-level defense (samples
// landing on non-loads are discarded).
#include "bench/bench_util.h"
#include "src/profile/collector.h"
#include "src/sim/exact_stats.h"
#include "src/workloads/btree_lookup.h"
#include "src/workloads/pointer_chase.h"

namespace yieldhide::bench {
namespace {

struct SampleQuality {
  double overhead = 0;
  double est_miss_prob = 0;
  double true_miss_prob = 0;
  size_t candidate_sites = 0;
  bool top_site_correct = false;
};

SampleQuality ProfileWith(const workloads::PointerChase& workload, uint64_t period,
                          uint32_t skid, double skid_probability) {
  sim::Machine machine(sim::MachineConfig::SkylakeLike());
  workload.InitMemory(machine.memory());
  sim::ExactStats exact;
  machine.listeners().Add(&exact);

  profile::CollectorConfig config = profile::CollectorForPeriod(period);
  config.max_skid = skid;
  config.skid_probability = skid_probability;
  auto result =
      profile::CollectProfile(workload.program(), machine, workload.SetupFor(0), config)
          .value();

  SampleQuality quality;
  quality.overhead = result.sampling_overhead_fraction;
  const isa::Addr hot = workload.miss_load_addr();
  quality.est_miss_prob = result.profile.loads.ForIp(hot).L2MissProbability();
  quality.true_miss_prob = exact.ForIp(hot).L2MissRatio();
  auto likely = result.profile.loads.LikelyStallLoads(0.05, 0.001);
  quality.candidate_sites = likely.size();
  quality.top_site_correct = !likely.empty() && likely[0] == hot;
  return quality;
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("C10", "sampling period & skid vs profile quality and overhead");
  JsonWriter json("C10", argc, argv);
  workloads::PointerChase::Config wc;
  wc.num_nodes = 1 << 18;
  wc.steps_per_task = 20'000;
  auto workload = workloads::PointerChase::Make(wc).value();

  std::printf("\n-- period sweep (no skid) --\n");
  Table table({"period", "overhead%", "est_p_miss", "true_p_miss", "candidates", "top_ok"});
  table.PrintHeader();
  for (uint64_t period : {3ull, 11ull, 31ull, 101ull, 307ull, 1009ull, 4001ull}) {
    const SampleQuality q = ProfileWith(workload, period, 0, 0.0);
    table.PrintRow({FmtU(period), Fmt("%.3f", 100 * q.overhead),
                    Fmt("%.3f", q.est_miss_prob), Fmt("%.3f", q.true_miss_prob),
                    StrFormat("%zu", q.candidate_sites), q.top_site_correct ? "yes" : "NO"});
    json.Add(StrFormat("period:%llu", static_cast<unsigned long long>(period)),
             {{"period", static_cast<double>(period)},
              {"overhead_fraction", q.overhead},
              {"est_miss_prob", q.est_miss_prob},
              {"true_miss_prob", q.true_miss_prob},
              {"candidate_sites", static_cast<double>(q.candidate_sites)},
              {"top_site_correct", q.top_site_correct ? 1.0 : 0.0}});
  }

  std::printf("\n-- skid sweep (period 31) --\n");
  Table skid_table({"max_skid", "p(skid)", "est_p_miss", "candidates", "top_ok"});
  skid_table.PrintHeader();
  for (const auto& [skid, prob] :
       std::vector<std::pair<uint32_t, double>>{{0, 0.0}, {1, 0.3}, {2, 0.6}, {3, 0.9}}) {
    const SampleQuality q = ProfileWith(workload, 31, skid, prob);
    skid_table.PrintRow({FmtU(skid), Fmt("%.1f", prob), Fmt("%.3f", q.est_miss_prob),
                         StrFormat("%zu", q.candidate_sites),
                         q.top_site_correct ? "yes" : "NO"});
    json.Add(StrFormat("skid:%u", skid),
             {{"max_skid", skid},
              {"skid_probability", prob},
              {"est_miss_prob", q.est_miss_prob},
              {"candidate_sites", static_cast<double>(q.candidate_sites)},
              {"top_site_correct", q.top_site_correct ? 1.0 : 0.0}});
  }

  std::printf(
      "\nReading: periods up to ~1000 still rank the hot miss site correctly\n"
      "while overhead falls well below 1%% — the regime that lets sample-based\n"
      "profiling run in production. Skid diffuses samples onto neighbouring\n"
      "instructions; because instrumentation is binary-level, samples landing\n"
      "on non-loads are provably discardable and the site survives moderate\n"
      "skid.\n");
  json.Flush();
  return 0;
}
