// C5 — asymmetric concurrency (§3.3): "we can now achieve both high CPU
// efficiency and low latency of the high-priority coroutine by running the
// high-priority coroutine in the primary mode and other coroutines in the
// scavenger mode."
//
// Scenario: latency-sensitive pointer-chase requests (the PRIMARY — every
// instrumented yield corresponds to a true DRAM miss) colocated with a
// compute-heavy batch kernel that went through the SCAVENGER pass (CYIELDs
// every ~target-interval cycles). Configurations:
//   * alone        — primary only: lowest latency, CPU ~95% stalled,
//   * dual(N)      — dual-mode execution with a scavenger pool of N,
//   * symmetric    — the same binaries but no asymmetry: requests and batch
//                    coroutines are peers in one round-robin ring (batch runs
//                    with its conditional yields on so it cooperates at the
//                    same granularity — the fairest symmetric baseline).
//
// Expected shape: dual-mode holds request latency within ~1.5x of running
// alone (scavengers return the CPU within the hide window, which roughly
// equals the miss the primary had to pay anyway) while CPU efficiency rises
// from ~4% to >60%; symmetric scheduling reaches similar efficiency but
// inflates request latency by roughly the ring size.
#include "bench/bench_util.h"
#include "src/runtime/dual_mode.h"
#include "src/workloads/pointer_chase.h"

namespace yieldhide::bench {
namespace {

constexpr int kRequests = 48;
constexpr uint64_t kChaseSteps = 400;

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("C5", "asymmetric concurrency: request latency vs CPU efficiency");
  JsonWriter json("C5", argc, argv);
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();

  workloads::PointerChase::Config wc;
  wc.num_nodes = 1 << 17;
  wc.steps_per_task = kChaseSteps;
  auto chase = workloads::PointerChase::Make(wc).value();
  auto pipeline = BenchPipeline();
  auto primary = core::BuildInstrumentedForWorkload(chase, pipeline).value().binary;
  auto batch = MakeScavengedBatch(machine_config);
  std::printf("batch kernel: %zu instructions, %zu scavenger cyields\n",
              batch.program.size(), batch.yields.size());

  Table table({"config", "p50_us", "p99_us", "latency_x", "efficiency", "batch_Mcycles"});
  table.PrintHeader();
  double alone_p50 = 0;

  auto run_dual = [&](const char* name, size_t max_scavengers, bool with_factory) {
    sim::Machine machine(machine_config);
    chase.InitMemory(machine.memory());
    runtime::DualModeConfig dm;
    dm.max_scavengers = max_scavengers;
    dm.hide_window_cycles = 300;
    runtime::DualModeScheduler sched(&primary, &batch, &machine, dm);
    for (int i = 0; i < kRequests; ++i) {
      sched.AddPrimaryTask(chase.SetupFor(i));
    }
    if (with_factory) {
      sched.SetScavengerFactory(BatchFactory());
    }
    auto report = sched.Run();
    if (!report.ok()) {
      std::fprintf(stderr, "dual run failed: %s\n", report.status().ToString().c_str());
      return;
    }
    const double p50 = report->primary_latency.ValueAtQuantile(0.5) /
                       machine_config.cycles_per_ns / 1000;
    const double p99 = report->primary_latency.ValueAtQuantile(0.99) /
                       machine_config.cycles_per_ns / 1000;
    if (alone_p50 == 0) {
      alone_p50 = p50;
    }
    table.PrintRow({name, Fmt("%.1f", p50), Fmt("%.1f", p99),
                    Fmt("%.2fx", p50 / alone_p50),
                    Fmt("%.3f", report->CpuEfficiency()),
                    Fmt("%.2f", report->scavenger_issue_cycles / 1e6)});
    json.Add(name, {{"p50_us", p50},
                    {"p99_us", p99},
                    {"latency_x", p50 / alone_p50},
                    {"efficiency", report->CpuEfficiency()},
                    {"batch_mcycles", report->scavenger_issue_cycles / 1e6}});
  };

  run_dual("alone", 0, false);
  run_dual("dual(1)", 1, true);
  run_dual("dual(2)", 2, true);
  run_dual("dual(4)", 4, true);

  // Symmetric baseline: requests and batch coroutines are ring peers with NO
  // notion of priority. The two binaries are linked into one image; batch
  // coroutines run with their conditional yields ON, so they cooperate at the
  // same granularity as in dual-mode — the only difference is the scheduling
  // policy.
  {
    instrument::InstrumentedProgram linked;
    linked.program = primary.program;
    const isa::Addr batch_entry = linked.program.AppendProgram(batch.program).value();
    linked.yields = primary.yields;
    for (const auto& [addr, info] : batch.yields) {
      linked.yields[addr + static_cast<isa::Addr>(primary.program.size())] = info;
    }

    sim::Machine machine(machine_config);
    chase.InitMemory(machine.memory());
    runtime::RoundRobinScheduler sched(&linked, &machine);
    // Requests arrive back-to-back on coroutine 0's slot; batch peers fill
    // the rest of the ring. Batch length is sized so the ring stays full for
    // the whole measured window.
    std::vector<int> request_ids;
    for (int i = 0; i < 8; ++i) {
      request_ids.push_back(sched.AddCoroutine(chase.SetupFor(i)));
    }
    for (int b = 0; b < 7; ++b) {
      sched.AddCoroutine([](sim::CpuContext& ctx) { ctx.regs[2] = 4000; },
                         /*cyield_enabled=*/true, batch_entry);
    }
    auto report = sched.Run(2'000'000'000ull);
    if (report.ok()) {
      LatencyHistogram latency;
      for (const auto& record : report->completions) {
        if (record.coroutine_id < 8) {
          latency.Record(record.LatencyCycles());
        }
      }
      const double p50 =
          latency.ValueAtQuantile(0.5) / machine_config.cycles_per_ns / 1000;
      const double p99 =
          latency.ValueAtQuantile(0.99) / machine_config.cycles_per_ns / 1000;
      table.PrintRow({"symmetric(+7)", Fmt("%.1f", p50), Fmt("%.1f", p99),
                      Fmt("%.2fx", p50 / alone_p50),
                      Fmt("%.3f", report->CpuEfficiency()), "-"});
      json.Add("symmetric(+7)", {{"p50_us", p50},
                                 {"p99_us", p99},
                                 {"latency_x", p50 / alone_p50},
                                 {"efficiency", report->CpuEfficiency()}});
    } else {
      std::fprintf(stderr, "symmetric run failed: %s\n",
                   report.status().ToString().c_str());
    }
  }

  std::printf(
      "\nReading: dual-mode keeps request latency within a small factor of\n"
      "running alone — each primary yield hands the CPU away for ~the same\n"
      "300 cycles the DRAM miss would have stalled it anyway — while CPU\n"
      "efficiency rises by an order of magnitude. Symmetric scheduling of 8\n"
      "peers reaches similar efficiency but multiplies request latency by\n"
      "the ring size: there is no one to hand the CPU back promptly.\n");
  json.Flush();
  return 0;
}
