// S1 — open-loop serving: tail latency under load, with and without
// software miss-hiding (docs/SERVING.md).
//
// The closed-loop benches (C3, C5) measure throughput and per-task wall
// latency with the request stream always backed up. Real serving is OPEN
// LOOP: requests arrive on their own clock, queue, and their end-to-end
// latency includes the wait. This bench sweeps a seeded Poisson arrival
// process across utilizations of the BASELINE's capacity and compares two
// identical front ends (same arrivals, same seeds, same bounded queue):
//
//   baseline     — the uninstrumented binary; the queue drains strictly
//                  through the primary, one request at a time.
//   instrumented — the prefetch+yield binary; queued requests behind the
//                  head ride the scavenger slots, so a miss in request A's
//                  handler donates its stall window to requests B, C, ...
//
// Hiding the misses multiplies effective service capacity without touching
// the arrival process, which collapses queue waits — the win shows up in
// the TAILS (p99/p999) long before mean utilization looks scary.
//
// Gates:
//   * the sweep spans >= 5 loads from light traffic past baseline
//     saturation (u = 1.2);
//   * at every pre-saturation point the instrumented front end beats the
//     baseline on BOTH p99 and p999 end-to-end latency;
//   * at the knee (u = 0.9) instrumented goodput >= baseline goodput;
//   * overload sheds instead of growing latency without bound: at u = 1.2
//     the baseline sheds and its p99 stays under the bounded-queue ceiling,
//     and a deep-overload point (u = 6.0) does the same to the instrumented
//     front end;
//   * a fixed seed is deterministic: repeating one mid-sweep point
//     reproduces every counter and every quantile exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/serve/front_end.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr uint64_t kChaseNodes = 1 << 16;
constexpr uint64_t kChaseSteps = 300;
constexpr int kCalibrationTasks = 12;
constexpr int kTargetRequests = 400;  // expected arrivals per sweep point
constexpr size_t kQueueCapacity = 32;
constexpr uint64_t kSeed = 7;
constexpr double kKneeUtil = 0.9;
constexpr double kOverloadUtil = 1.2;
constexpr double kDeepOverloadUtil = 6.0;

runtime::DualModeConfig ServeDualConfig() {
  runtime::DualModeConfig dm;
  dm.max_scavengers = 4;
  dm.hide_window_cycles = 300;
  return dm;
}

// Closed-loop mean service time of the baseline binary: the seed for the
// open-loop capacity calibration below.
Result<double> ClosedLoopServiceCycles(
    const workloads::PhasedChase& chase,
    const instrument::InstrumentedProgram& binary,
    const sim::MachineConfig& machine_config) {
  sim::Machine machine(machine_config);
  chase.InitMemory(machine.memory());
  runtime::DualModeScheduler sched(&binary, &binary, &machine,
                                   ServeDualConfig());
  for (int i = 0; i < kCalibrationTasks; ++i) {
    sched.AddPrimaryTask(chase.SetupFor(i));
  }
  YH_ASSIGN_OR_RETURN(const runtime::DualModeReport report, sched.Run());
  return static_cast<double>(report.run.total_cycles) /
         static_cast<double>(kCalibrationTasks);
}

struct OpenLoopOutcome {
  serve::FrontEndReport report;
  uint64_t end_cycle = 0;  // machine clock when serving finished (drain done)
};

// One open-loop run: the ShardFrontEnd drives a DualModeScheduler directly
// (no adaptation, no sampling — this bench isolates the serving physics).
Result<OpenLoopOutcome> RunOpenLoop(
    const workloads::PhasedChase& chase,
    const instrument::InstrumentedProgram& binary,
    const sim::MachineConfig& machine_config,
    const serve::FrontEndConfig& fe_config) {
  sim::Machine machine(machine_config);
  chase.InitMemory(machine.memory());
  runtime::DualModeScheduler sched(&binary, &binary, &machine,
                                   ServeDualConfig());
  serve::ShardFrontEnd fe(
      fe_config,
      [&chase](uint64_t id) { return chase.SetupFor(static_cast<int>(id)); },
      /*trace=*/nullptr, /*metrics=*/nullptr, obs::Labels{});
  sched.SetScavengerFactory(fe.MakeScavengerFactory());
  sched.SetScavengerLifecycleHooks(
      [&fe](int ctx_id, uint64_t now) { fe.OnScavengerSpawn(ctx_id, now); },
      [&fe](int ctx_id, uint64_t now, bool completed) {
        fe.OnScavengerRetire(ctx_id, now, completed);
      });
  while (fe.Poll(machine, sched)) {
    YH_ASSIGN_OR_RETURN(const size_t ran, sched.RunTasks(1));
    (void)ran;
  }
  YH_RETURN_IF_ERROR(fe.status());
  YH_RETURN_IF_ERROR(sched.Finalize().status());
  return OpenLoopOutcome{fe.report(), machine.now()};
}

// The capacity unit for the utilization grid, measured on the SERVING PATH
// itself: drive the baseline front end far past saturation (the bounded
// queue keeps the primary back-to-back the whole run) and take cycles per
// completed request. A closed-loop estimate over a handful of tasks gets
// per-task variance and warm-cache effects wrong by tens of percent, which
// silently shifts every utilization point; the saturated open-loop rate IS
// the capacity the sweep is expressed against.
Result<double> CalibrateServiceCycles(
    const workloads::PhasedChase& chase,
    const instrument::InstrumentedProgram& binary,
    const sim::MachineConfig& machine_config,
    const serve::FrontEndConfig& saturate_config) {
  YH_ASSIGN_OR_RETURN(
      const OpenLoopOutcome saturated,
      RunOpenLoop(chase, binary, machine_config, saturate_config));
  if (saturated.report.counters.completed == 0) {
    return InternalError("calibration run completed zero requests");
  }
  return static_cast<double>(saturated.end_cycle) /
         static_cast<double>(saturated.report.counters.completed);
}

serve::FrontEndConfig PointConfig(double util, double service_cycles,
                                  bool scavengers_serve) {
  serve::FrontEndConfig fe;
  fe.arrival.kind = serve::ArrivalConfig::Kind::kPoisson;
  fe.arrival.rate_per_kcycle = 1000.0 * util / service_cycles;
  fe.arrival.horizon_cycles =
      static_cast<uint64_t>(kTargetRequests * service_cycles / util);
  fe.arrival.seed = kSeed;  // same seed at equal util = identical arrivals
  fe.queue_capacity = kQueueCapacity;
  fe.scavengers_serve = scavengers_serve;
  return fe;
}

struct PointResult {
  double util = 0.0;
  serve::FrontEndReport base;
  serve::FrontEndReport instr;
};

uint64_t P999(const serve::FrontEndReport& r) {
  return r.latency.ValueAtQuantile(0.999);
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("S1", "open-loop serving: tail latency and goodput across a load sweep");
  JsonWriter json("S1", argc, argv);
  Gates gate("S1");

  workloads::PhasedChase::Config wl;
  wl.num_nodes = kChaseNodes;
  wl.steps_per_task = kChaseSteps;
  wl.severity = 0.0;  // serving physics, not drift: a single stable phase
  auto chase = workloads::PhasedChase::Make(wl).value();
  const auto pipeline = BenchPipeline();
  const sim::MachineConfig machine_config = pipeline.machine;

  // Baseline = the original program with only its manual yield annotations
  // (no prefetch+yield instrumentation); instrumented = the full two-pass
  // pipeline build from a fresh profile of the same workload.
  const auto baseline_binary =
      runtime::AnnotateManualYields(chase.program(), machine_config.cost);
  auto artifacts = core::BuildInstrumentedForWorkload(chase, pipeline);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "instrumentation failed: %s\n",
                 artifacts.status().ToString().c_str());
    return 2;
  }
  const instrument::InstrumentedProgram& instr_binary = artifacts->binary;

  auto closed = ClosedLoopServiceCycles(chase, baseline_binary, machine_config);
  if (!closed.ok()) {
    std::fprintf(stderr, "closed-loop calibration failed: %s\n",
                 closed.status().ToString().c_str());
    return 2;
  }
  auto service = CalibrateServiceCycles(
      chase, baseline_binary, machine_config,
      PointConfig(kDeepOverloadUtil, *closed, /*scavengers_serve=*/false));
  if (!service.ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 service.status().ToString().c_str());
    return 2;
  }
  const double S = *service;
  std::printf("baseline service time: %.0f cycles/request "
              "(closed-loop estimate %.0f, saturated open-loop calibration)\n",
              S, *closed);
  std::printf("utilization grid is offered load over BASELINE capacity; both\n"
              "variants see the identical seeded arrival sequence per point\n\n");

  const std::vector<double> utils = {0.3, 0.5, 0.7, kKneeUtil, kOverloadUtil};
  std::vector<PointResult> points;
  Table table({"util", "variant", "offered", "shed", "completed", "p50", "p99",
               "p999", "ledger"});
  table.PrintHeader();
  for (const double u : utils) {
    PointResult point;
    point.util = u;
    auto base = RunOpenLoop(chase, baseline_binary, machine_config,
                            PointConfig(u, S, /*scavengers_serve=*/false));
    auto instr = RunOpenLoop(chase, instr_binary, machine_config,
                             PointConfig(u, S, /*scavengers_serve=*/true));
    if (!base.ok() || !instr.ok()) {
      std::fprintf(stderr, "sweep point u=%.1f failed: %s\n", u,
                   (!base.ok() ? base : instr).status().ToString().c_str());
      return 2;
    }
    point.base = base->report;
    point.instr = instr->report;
    for (const auto* r : {&point.base, &point.instr}) {
      const bool conserved = r->ConservationHolds();
      gate.Record(conserved);
      table.PrintRow({Fmt("%.1f", u), r == &point.base ? "base" : "instr",
                      std::to_string(r->counters.offered),
                      std::to_string(r->counters.shed),
                      std::to_string(r->counters.completed),
                      FmtU(r->latency.P50()), FmtU(r->latency.P99()),
                      FmtU(P999(*r)), conserved ? "ok" : "BROKEN"});
    }
    json.Add(StrFormat("sweep_u%.1f", u),
             {{"util", u},
              {"offered", static_cast<double>(point.base.counters.offered)},
              {"base_shed", static_cast<double>(point.base.counters.shed)},
              {"base_completed",
               static_cast<double>(point.base.counters.completed)},
              {"base_p50", static_cast<double>(point.base.latency.P50())},
              {"base_p99", static_cast<double>(point.base.latency.P99())},
              {"base_p999", static_cast<double>(P999(point.base))},
              {"instr_shed", static_cast<double>(point.instr.counters.shed)},
              {"instr_completed",
               static_cast<double>(point.instr.counters.completed)},
              {"instr_p50", static_cast<double>(point.instr.latency.P50())},
              {"instr_p99", static_cast<double>(point.instr.latency.P99())},
              {"instr_p999", static_cast<double>(P999(point.instr))}});
    points.push_back(std::move(point));
  }

  // Gate 1: sweep shape — >= 5 points, spanning light load to past baseline
  // saturation.
  const bool sweep_ok = points.size() >= 5 && points.front().util < 0.5 &&
                        points.back().util > 1.0;
  std::printf("\n  sweep: %zu points, u=%.1f..%.1f -> %s\n", points.size(),
              points.front().util, points.back().util, gate.Record(sweep_ok));

  // Gate 2: tails — instrumented beats baseline on p99 AND p999 at every
  // pre-saturation point.
  bool tails_ok = true;
  for (const PointResult& point : points) {
    if (point.util >= 1.0) {
      continue;
    }
    const bool beats = point.instr.latency.P99() < point.base.latency.P99() &&
                       P999(point.instr) < P999(point.base);
    tails_ok = tails_ok && beats;
    std::printf("  tails u=%.1f: p99 %s < %s, p999 %s < %s -> %s\n",
                point.util, FmtU(point.instr.latency.P99()).c_str(),
                FmtU(point.base.latency.P99()).c_str(),
                FmtU(P999(point.instr)).c_str(), FmtU(P999(point.base)).c_str(),
                beats ? "pass" : "FAIL");
  }
  gate.Record(tails_ok);

  // Gate 3: goodput at the knee.
  const PointResult* knee = nullptr;
  for (const PointResult& point : points) {
    if (point.util == kKneeUtil) {
      knee = &point;
    }
  }
  const bool knee_ok =
      knee != nullptr &&
      knee->instr.counters.completed >= knee->base.counters.completed;
  gate.Record(knee_ok);
  if (knee != nullptr) {
    std::printf("  knee u=%.1f goodput: instr %llu >= base %llu -> %s\n",
                kKneeUtil,
                static_cast<unsigned long long>(knee->instr.counters.completed),
                static_cast<unsigned long long>(knee->base.counters.completed),
                knee_ok ? "pass" : "FAIL");
  }

  // Gate 4: overload sheds, latency stays bounded by the queue. The ceiling
  // is the all-slots-full worst case plus slack for the tail of one service.
  const double p99_ceiling = (static_cast<double>(kQueueCapacity) + 6.0) * S;
  const PointResult* over = &points.back();
  const bool base_overload_ok =
      over->base.counters.shed > 0 &&
      static_cast<double>(over->base.latency.P99()) <= p99_ceiling;
  auto deep_run = RunOpenLoop(chase, instr_binary, machine_config,
                              PointConfig(kDeepOverloadUtil, S, true));
  if (!deep_run.ok()) {
    std::fprintf(stderr, "deep-overload run failed: %s\n",
                 deep_run.status().ToString().c_str());
    return 2;
  }
  const serve::FrontEndReport* deep = &deep_run->report;
  const bool instr_overload_ok =
      deep->ConservationHolds() && deep->counters.shed > 0 &&
      static_cast<double>(deep->latency.P99()) <= p99_ceiling;
  std::printf("  overload u=%.1f base: shed=%llu p99=%s (ceiling %.0f) -> %s\n",
              kOverloadUtil,
              static_cast<unsigned long long>(over->base.counters.shed),
              FmtU(over->base.latency.P99()).c_str(), p99_ceiling,
              gate.Record(base_overload_ok));
  std::printf("  overload u=%.1f instr: shed=%llu p99=%s (ceiling %.0f) -> %s\n",
              kDeepOverloadUtil,
              static_cast<unsigned long long>(deep->counters.shed),
              FmtU(deep->latency.P99()).c_str(), p99_ceiling,
              gate.Record(instr_overload_ok));
  json.Add("overload",
           {{"base_shed", static_cast<double>(over->base.counters.shed)},
            {"deep_util", kDeepOverloadUtil},
            {"deep_shed", static_cast<double>(deep->counters.shed)},
            {"deep_p99", static_cast<double>(deep->latency.P99())},
            {"p99_ceiling", p99_ceiling}});

  // Gate 5: determinism — repeat one mid-sweep instrumented point; every
  // counter and every reported quantile must reproduce exactly.
  auto repeat_run = RunOpenLoop(chase, instr_binary, machine_config,
                                PointConfig(0.7, S, true));
  if (!repeat_run.ok()) {
    std::fprintf(stderr, "determinism rerun failed: %s\n",
                 repeat_run.status().ToString().c_str());
    return 2;
  }
  const serve::FrontEndReport* repeat = &repeat_run->report;
  const serve::FrontEndReport* first = nullptr;
  for (const PointResult& point : points) {
    if (point.util == 0.7) {
      first = &point.instr;
    }
  }
  const bool deterministic =
      first != nullptr &&
      first->counters.offered == repeat->counters.offered &&
      first->counters.admitted == repeat->counters.admitted &&
      first->counters.shed == repeat->counters.shed &&
      first->counters.completed == repeat->counters.completed &&
      first->latency.P50() == repeat->latency.P50() &&
      first->latency.P99() == repeat->latency.P99() &&
      P999(*first) == P999(*repeat);
  gate.Record(deterministic);
  std::printf("  determinism u=0.7 rerun: %s\n",
              deterministic ? "bit-identical counters and quantiles (pass)"
                            : "DIVERGED (FAIL)");
  json.Add("gates", {{"sweep", sweep_ok ? 1.0 : 0.0},
                     {"tails", tails_ok ? 1.0 : 0.0},
                     {"knee_goodput", knee_ok ? 1.0 : 0.0},
                     {"overload_base", base_overload_ok ? 1.0 : 0.0},
                     {"overload_instr", instr_overload_ok ? 1.0 : 0.0},
                     {"deterministic", deterministic ? 1.0 : 0.0},
                     {"service_cycles", S}});

  std::printf(
      "\nReading: equal offered load, equal seeds — only the binary and the\n"
      "use of miss windows differ. The instrumented front end serves queued\n"
      "requests inside the head request's stalls, so the queue wait that\n"
      "dominates the baseline's p99/p999 collapses; at overload the bounded\n"
      "queue sheds instead of stretching the tail.\n");
  json.Flush();
  return gate.Finish();
}
