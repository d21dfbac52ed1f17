// O4 — differential attribution: can the diagnosis engine answer "why is
// p99 up?" without a human eyeballing four exports? (docs/OBSERVABILITY.md)
//
// O2/O3 proved both taxonomies are exact partitions; this bench proves the
// layer ON TOP of them — tail exemplars + window-over-window diffs + the
// control-plane join — produces the RIGHT diagnosis for two planted
// regressions, not merely a well-formed one:
//
//   scenario A (workload drift): yesterday's phase-A binary serves today's
//     drifted PhasedChase; the adaptation loop (guard off, so no control
//     events muddy the join) rebuilds and hot-swaps a generation whose yield
//     sites cover the NEW hot load. Diffing pre-swap epochs against
//     post-swap epochs must rank the planted site — the drifted workload's
//     miss_load_b — first, with a stall class dominant, and classify the
//     regression as workload-drift;
//   scenario B (control-plane): the O3 rollback recipe (guard + SLO veto +
//     kRegression serving fault) arms a canary and rolls it back. Diffing
//     the pre-canary epochs against the window holding the canary/rollback
//     must join the guard events and classify it control-plane-induced —
//     the regression is self-inflicted, and the engine must say so.
//
// Gates:
//   * diagnosis: scenario A's top-ranked site IS miss_load_b with a
//     stall-window class dominant and cause == workload-drift; scenario B's
//     cause ==
//     control-plane-induced with the rollback event joined into the window;
//   * exemplars: every retained exemplar's span classes sum exactly to its
//     latency (the inherited O3 invariant), and each rolling window's top-K
//     set equals the top-K prefix of a full offline sort of every completed
//     request in that window (latency desc, id asc — the threshold-gated
//     min-heap loses nothing it should have kept);
//   * overhead: the whole new layer (spans + SLO + trace + exemplar
//     reservoir) costs <= 1.05x bare in simulated cycles when enabled,
//     <= 1.01x when attached but disabled;
//   * determinism: rerunning scenario B reproduces every span/profiler/SLO
//     counter, the retained exemplar set, and the rendered diagnosis JSON
//     byte for byte.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/adapt/server_group.h"
#include "src/faultinject/serving_faults.h"
#include "src/obs/diff/diff.h"
#include "src/obs/exemplar/exemplar.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"
#include "src/serve/deployment.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr size_t kShards = 2;
constexpr int kTasksPerEpoch = 8;
constexpr uint64_t kChaseNodes = 1 << 16;
constexpr uint64_t kChaseSteps = 300;
constexpr uint64_t kSeed = 11;
constexpr uint64_t kQueueCapacity = 32;
constexpr size_t kTopK = 4;
constexpr uint64_t kWindowCycles = 1ull << 20;
// The planted drift: per-shard task 24 onward walks the B ring, so the
// regression lands at epoch kFlip/kTasksPerEpoch — LATE enough that the diff
// has healthy pre-drift baseline epochs to window against.
constexpr int kFlip = 24;
constexpr double kEnabledCeiling = 1.05;
constexpr double kDisabledCeiling = 1.01;

// The profiler is ALWAYS attached (it is the diff engine's site feed and its
// overhead was gated by O1); the mode varies what this PR's layer adds —
// spans + SLO + trace + the exemplar reservoir.
enum class ObsMode { kNone, kDisabled, kEnabled };

struct PointSpec {
  double rate = 0.02;             // arrivals per kcycle, per shard
  uint64_t duration = 5'000'000;  // arrival horizon, cycles
  bool adapt = false;             // adaptation + rebuild + hot swap
  bool guard = false;             // canary guard + SLO veto + regress fault
};

struct PointOutcome {
  serve::Deployment deployment;
  adapt::GroupReport report;
  std::vector<obs::TraceEvent> events;  // drained span/SLO/guard stream

  // Per-shard machine clocks at drain, summed.
  uint64_t total_cycles() const {
    uint64_t t = 0;
    for (size_t s = 0; s < kShards; ++s) {
      t += deployment.machine(s).now();
    }
    return t;
  }
};

Result<PointOutcome> RunPoint(const workloads::PhasedChase& chase,
                              const core::PipelineArtifacts& artifacts,
                              const core::PipelineConfig& pipeline,
                              const PointSpec& spec, ObsMode mode) {
  serve::DeploymentSpec deploy;
  adapt::ServerGroupConfig& config = deploy.group;
  config.shards = kShards;
  config.shard = ShardConfig(pipeline, kTasksPerEpoch);
  config.shard.adapt_enabled = spec.adapt;
  config.shard.scale_pool = spec.adapt;
  if (spec.guard) {
    config.guard.enabled = true;
    config.guard.confirmation_window = 2;
    config.guard.consult_slo = true;
    faultinject::FaultSpec fault;
    fault.fault = faultinject::FaultClass::kRegression;
    fault.severity = 1.0;
    YH_ASSIGN_OR_RETURN(
        config.fault_hooks,
        faultinject::MakeServingFaultHooks(
            {fault}, static_cast<isa::Addr>(chase.program().size())));
  }
  serve::FrontEndConfig& fe = deploy.front_end;
  fe.arrival.kind = serve::ArrivalConfig::Kind::kPoisson;
  fe.arrival.rate_per_kcycle = spec.rate;
  fe.arrival.horizon_cycles = spec.duration;
  fe.arrival.seed = kSeed;
  fe.queue_capacity = kQueueCapacity;
  fe.scavengers_serve = true;
  // Per-site epoch snapshots are what the diff engine ranks sites from.
  deploy.profiler.emplace().epoch_site_snapshots = true;

  // Full observability stream: spans + SLO alerts + guard control windows,
  // the same mask `yhc spans --perfetto` renders; the drained events feed
  // the diff engine's SLO-alert join.
  obs::TraceConfig trace_config;
  trace_config.capacity = 1 << 12;
  trace_config.mask = obs::kTraceSpan | obs::kTraceSlo | obs::kTraceGuard;
  obs::TraceRecorder recorder(trace_config);
  std::vector<obs::TraceEvent> events;
  recorder.SetSink(
      [&events](const obs::TraceEvent& event) { events.push_back(event); });
  if (mode != ObsMode::kNone) {
    const bool enabled = mode == ObsMode::kEnabled;
    deploy.trace = &recorder;
    deploy.spans.emplace().enabled = enabled;
    deploy.slo.emplace().enabled = enabled;
    obs::ExemplarReservoirConfig& exemplars = deploy.exemplars.emplace();
    exemplars.enabled = enabled;
    exemplars.top_k = kTopK;
    exemplars.window_cycles = kWindowCycles;
  }

  YH_ASSIGN_OR_RETURN(serve::Deployment deployment,
                      serve::Deployment::Build(chase, artifacts, deploy));
  YH_ASSIGN_OR_RETURN(adapt::GroupReport report, deployment.Run());
  return PointOutcome{std::move(deployment), std::move(report),
                      std::move(events)};
}

// Feeds one finished point into a DiffEngine: the exact conversion `yhc why`
// performs, since both call serve::BuildDiffEngine.
obs::DiffEngine BuildEngine(const PointOutcome& outcome) {
  return serve::BuildDiffEngine(outcome.deployment, outcome.report,
                                outcome.events);
}

obs::EpochSet Range(size_t lo, size_t hi) {
  obs::EpochSet set;
  for (size_t e = lo; e <= hi; ++e) {
    set.epochs.push_back(e);
  }
  return set;
}

// The reservoir's whole claim: the threshold-gated min-heap retains, per
// rolling window, EXACTLY the top-K prefix of a full offline sort of every
// completed request that landed in the window.
bool TopKMatchesOfflineSort(const obs::SpanCollector& spans,
                            const obs::ExemplarReservoir& reservoir,
                            std::string* detail) {
  if (reservoir.evicted_windows() != 0 || reservoir.late_drops() != 0) {
    *detail = "history lost (evictions/late drops) — offline compare is moot";
    return false;
  }
  if (reservoir.offered() != spans.completed_count() ||
      spans.completed().size() != spans.completed_count()) {
    *detail = StrFormat("offered %llu != completed %llu",
                        static_cast<unsigned long long>(reservoir.offered()),
                        static_cast<unsigned long long>(spans.completed_count()));
    return false;
  }
  std::map<uint64_t, std::vector<obs::RequestSpan>> by_window;
  for (const obs::RequestSpan& span : spans.completed()) {
    by_window[span.complete_cycle / reservoir.config().window_cycles]
        .push_back(span);
  }
  if (by_window.size() != reservoir.windows().size()) {
    *detail = StrFormat("%zu offline windows vs %zu retained", by_window.size(),
                        reservoir.windows().size());
    return false;
  }
  size_t compared = 0;
  for (const obs::ExemplarReservoir::Window& window : reservoir.windows()) {
    auto it = by_window.find(window.ordinal);
    if (it == by_window.end()) {
      *detail = StrFormat("retained window %llu has no completions",
                          static_cast<unsigned long long>(window.ordinal));
      return false;
    }
    std::vector<obs::RequestSpan> expect = it->second;
    std::sort(expect.begin(), expect.end(),
              [](const obs::RequestSpan& a, const obs::RequestSpan& b) {
                return obs::ExemplarReservoir::Outranks(a, b);
              });
    const size_t k = std::min(reservoir.config().top_k, expect.size());
    const std::vector<obs::Exemplar> got = obs::ExemplarReservoir::Sorted(window);
    if (got.size() != k) {
      *detail = StrFormat("window %llu retained %zu, offline top-K is %zu",
                          static_cast<unsigned long long>(window.ordinal),
                          got.size(), k);
      return false;
    }
    for (size_t i = 0; i < k; ++i) {
      if (got[i].span.id != expect[i].id ||
          got[i].span.latency() != expect[i].latency()) {
        *detail = StrFormat("window %llu rank %zu: id %llu != offline id %llu",
                            static_cast<unsigned long long>(window.ordinal), i,
                            static_cast<unsigned long long>(got[i].span.id),
                            static_cast<unsigned long long>(expect[i].id));
        return false;
      }
      ++compared;
    }
  }
  *detail = StrFormat("%zu exemplars across %zu windows match the offline sort",
                      compared, reservoir.windows().size());
  return true;
}

bool SameExemplars(const obs::ExemplarReservoir& a,
                   const obs::ExemplarReservoir& b) {
  const std::vector<obs::Exemplar> ea = a.Merged();
  const std::vector<obs::Exemplar> eb = b.Merged();
  if (ea.size() != eb.size() || a.offered() != b.offered() ||
      a.accepted() != b.accepted() || a.rejected() != b.rejected()) {
    return false;
  }
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].span.id != eb[i].span.id ||
        ea[i].span.latency() != eb[i].span.latency() ||
        ea[i].window != eb[i].window ||
        ea[i].context.generation_id != eb[i].context.generation_id ||
        ea[i].context.epoch != eb[i].context.epoch ||
        ea[i].context.quarantined != eb[i].context.quarantined ||
        ea[i].context.control_window != eb[i].context.control_window) {
      return false;
    }
  }
  return true;
}

bool SameOutcome(const PointOutcome& a, const PointOutcome& b) {
  if (a.report.rollbacks != b.report.rollbacks ||
      a.report.canaries != b.report.canaries ||
      a.report.installs != b.report.installs ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t s = 0; s < kShards; ++s) {
    if (!SameShardOutcome(a.deployment, b.deployment, s) ||
        !SameExemplars(*a.deployment.exemplars(s),
                       *b.deployment.exemplars(s))) {
      return false;
    }
  }
  return true;
}

// Renders the full diagnosis for a point: build the engine, diff the given
// windows, join exemplars — the byte stream `yhc why --json` would print.
Result<std::string> RenderDiagnosis(const PointOutcome& outcome,
                                    const obs::EpochSet& baseline,
                                    const obs::EpochSet& current) {
  obs::DiffEngine engine = BuildEngine(outcome);
  YH_ASSIGN_OR_RETURN(obs::DiffReport report, engine.Diff(baseline, current));
  std::vector<const obs::ExemplarReservoir*> reservoirs;
  for (size_t s = 0; s < kShards; ++s) {
    reservoirs.push_back(outcome.deployment.exemplars(s));
  }
  return obs::ToDiffJson(report,
                         obs::SupportingExemplars(reservoirs, current, 3));
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("O4", "tail exemplars + differential attribution: automated p99 diagnosis");
  JsonWriter json("O4", argc, argv);
  std::string exemplar_out;  // --exemplar-perfetto <path>: CI artifact
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--exemplar-perfetto") {
      exemplar_out = argv[i + 1];
    }
  }
  Gates gate("O4");

  // Yesterday's phase-A profile serving today's drifted service: the planted
  // workload regression is that every task now walks the B ring, whose hot
  // load (miss_load_b) the stale binary has no yield for.
  workloads::PhasedChase::Config today;
  today.num_nodes = kChaseNodes;
  today.steps_per_task = kChaseSteps;
  today.severity = 1.0;
  today.flip_task_index = kFlip;
  const auto pipeline = BenchPipeline();
  auto scenario = serve::DriftScenario::Make(today, pipeline);
  if (!scenario.ok()) {
    std::fprintf(stderr, "instrumentation failed: %s\n",
                 scenario.status().ToString().c_str());
    return 2;
  }
  const core::PipelineArtifacts& stale = scenario->stale;
  const workloads::PhasedChase& chase = scenario->chase;
  const uint64_t planted_site = chase.miss_load_b();

  Table table({"scenario", "epochs", "cause", "top_site", "class", "verdict"});
  table.PrintHeader();

  // ---------- scenario A: workload drift names the planted site -----------
  const PointSpec drift_spec{/*rate=*/0.02, /*duration=*/8'000'000,
                             /*adapt=*/true, /*guard=*/false};
  auto drift = RunPoint(chase, stale, pipeline, drift_spec, ObsMode::kEnabled);
  bool drift_ok = false;
  if (!drift.ok()) {
    std::fprintf(stderr, "drift scenario failed: %s\n",
                 drift.status().ToString().c_str());
    table.PrintRow({"drift", "-", "BROKEN", "-", "-", "FAIL"});
  } else {
    const size_t epoch_count = BuildEngine(*drift).epoch_count();
    // Baseline: the epochs BEFORE the planted flip (pre-drift service).
    // Current: the epochs AFTER the last hot swap, when the rebuilt
    // generation's yield site at miss_load_b exists to attribute to — the
    // profiler can only name sites the serving binary can see.
    const size_t flip_epoch = static_cast<size_t>(kFlip) / kTasksPerEpoch;
    size_t last_swap = 0;
    for (const auto& [epoch, shard] : drift->report.swap_log) {
      last_swap = std::max(last_swap, epoch);
    }
    const size_t current_from = std::max(flip_epoch, last_swap) + 1;
    if (drift->report.installs < 1 || flip_epoch == 0 ||
        current_from >= epoch_count) {
      std::fprintf(stderr,
                   "drift scenario: no post-drift swap to diff across "
                   "(installs=%d, flip@%zu, last swap %zu of %zu epochs)\n",
                   drift->report.installs, flip_epoch, last_swap, epoch_count);
      for (size_t s = 0; s < kShards; ++s) {
        for (const auto& ep : drift->report.shards[s].epochs) {
          std::fprintf(stderr,
                       "    shard %zu epoch %zu gen %d drift %.4f swapped %d\n",
                       s, static_cast<size_t>(ep.epoch), ep.generation_id,
                       ep.drift, ep.swapped ? 1 : 0);
        }
      }
      table.PrintRow({"drift", std::to_string(epoch_count), "no-swap", "-", "-",
                      "FAIL"});
    } else {
      const obs::EpochSet baseline = Range(0, flip_epoch - 1);
      const obs::EpochSet current = Range(current_from, epoch_count - 1);
      obs::DiffEngine engine = BuildEngine(*drift);
      auto report = engine.Diff(baseline, current);
      if (!report.ok()) {
        std::fprintf(stderr, "drift diff failed: %s\n",
                     report.status().ToString().c_str());
        table.PrintRow({"drift", "-", "BROKEN", "-", "-", "FAIL"});
      } else {
        const bool cause_ok =
            report->cause == obs::RegressionCause::kWorkloadDrift;
        const bool site_ok =
            !report->sites.empty() && report->sites[0].site == planted_site;
        // The planted class: miss-window cycles at the drifted site. Which
        // face they show depends on who occupied the window — exposed (no
        // yield fired), hidden (scavenger issue inside the yield), or
        // scavenger wait (the burst's own misses inside the yield). Any
        // other dominant class (issue/switch/sched/prefetch/quarantine)
        // would mean the delta was misattributed.
        const bool class_ok =
            !report->sites.empty() &&
            (report->sites[0].dominant == obs::CycleClass::kStallHidden ||
             report->sites[0].dominant == obs::CycleClass::kStallExposed ||
             report->sites[0].dominant == obs::CycleClass::kScavengerWaste);
        drift_ok = cause_ok && site_ok && class_ok;
        const std::string top_site =
            report->sites.empty()
                ? std::string("-")
                : StrFormat("0x%llx", static_cast<unsigned long long>(
                                          report->sites[0].site));
        table.PrintRow(
            {"drift",
             StrFormat("%s|%s", baseline.ToString().c_str(),
                       current.ToString().c_str()),
             obs::RegressionCauseName(report->cause), top_site,
             report->sites.empty()
                 ? "-"
                 : obs::CycleClassName(report->sites[0].dominant),
             drift_ok ? "pass" : "FAIL"});
        std::printf(
            "  drift: planted site 0x%llx (miss_load_b), top-ranked %s "
            "delta %+0.0f cyc/epoch; installs=%d flip@%zu last-swap@%zu\n",
            static_cast<unsigned long long>(planted_site), top_site.c_str(),
            report->sites.empty() ? 0.0 : report->sites[0].delta_per_epoch,
            drift->report.installs, flip_epoch, last_swap);
        json.Add("scenario_drift",
                 {{"installs", static_cast<double>(drift->report.installs)},
                  {"site_named", site_ok ? 1.0 : 0.0},
                  {"class_named", class_ok ? 1.0 : 0.0},
                  {"cause_drift", cause_ok ? 1.0 : 0.0},
                  {"pass", drift_ok ? 1.0 : 0.0}});
      }
    }
  }
  gate.Record(drift_ok);

  // ---------- scenario B: the control-plane join owns its own mess --------
  const PointSpec rollback_spec{/*rate=*/0.02, /*duration=*/8'000'000,
                                /*adapt=*/true, /*guard=*/true};
  auto rollback = RunPoint(chase, stale, pipeline, rollback_spec,
                           ObsMode::kEnabled);
  bool rollback_ok = false;
  obs::EpochSet rb_baseline, rb_current;
  if (!rollback.ok()) {
    std::fprintf(stderr, "rollback scenario failed: %s\n",
                 rollback.status().ToString().c_str());
    table.PrintRow({"rollback", "-", "BROKEN", "-", "-", "FAIL"});
  } else {
    const size_t epoch_count = BuildEngine(*rollback).epoch_count();
    // The rollback-induced window: the first rollback, anchored at the
    // canary confirmation that produced it (the LAST kCanaryBegin at or
    // before the rollback epoch).
    size_t canary_epoch = static_cast<size_t>(-1);
    size_t rollback_epoch = static_cast<size_t>(-1);
    for (const adapt::GuardEvent& event : rollback->report.guard_log) {
      if (event.kind == adapt::GuardEventKind::kRollback &&
          rollback_epoch == static_cast<size_t>(-1)) {
        rollback_epoch = event.epoch;
      }
    }
    for (const adapt::GuardEvent& event : rollback->report.guard_log) {
      if (event.kind == adapt::GuardEventKind::kCanaryBegin &&
          event.epoch <= rollback_epoch &&
          (canary_epoch == static_cast<size_t>(-1) ||
           event.epoch > canary_epoch)) {
        canary_epoch = event.epoch;
      }
    }
    const bool armed = rollback->report.canaries >= 1 &&
                       rollback->report.rollbacks >= 1 &&
                       canary_epoch != static_cast<size_t>(-1) &&
                       rollback_epoch != static_cast<size_t>(-1) &&
                       canary_epoch >= 1 && canary_epoch < epoch_count;
    if (!armed) {
      std::fprintf(stderr,
                   "rollback scenario: no windowable rollback "
                   "(canaries=%d rollbacks=%d canary@%zu rollback@%zu of %zu "
                   "epochs)\n",
                   rollback->report.canaries, rollback->report.rollbacks,
                   canary_epoch, rollback_epoch, epoch_count);
      for (const adapt::GuardEvent& event : rollback->report.guard_log) {
        std::fprintf(stderr, "    guard: %s\n", event.ToString().c_str());
      }
      table.PrintRow({"rollback", std::to_string(epoch_count), "no-rollback",
                      "-", "-", "FAIL"});
    } else {
      rb_baseline = Range(0, canary_epoch - 1);
      rb_current = Range(std::min(canary_epoch, rollback_epoch),
                         std::min(rollback_epoch + 1, epoch_count - 1));
      obs::DiffEngine engine = BuildEngine(*rollback);
      auto report = engine.Diff(rb_baseline, rb_current);
      if (!report.ok()) {
        std::fprintf(stderr, "rollback diff failed: %s\n",
                     report.status().ToString().c_str());
        table.PrintRow({"rollback", "-", "BROKEN", "-", "-", "FAIL"});
      } else {
        const bool cause_ok =
            report->cause == obs::RegressionCause::kControlPlane;
        bool joined_rollback = false;
        for (const obs::ControlEvent& event : report->joined) {
          joined_rollback =
              joined_rollback ||
              event.kind == obs::ControlEvent::Kind::kCanaryRollback;
        }
        rollback_ok = cause_ok && joined_rollback;
        table.PrintRow(
            {"rollback",
             StrFormat("%s|%s", rb_baseline.ToString().c_str(),
                       rb_current.ToString().c_str()),
             obs::RegressionCauseName(report->cause),
             report->sites.empty()
                 ? std::string("-")
                 : StrFormat("0x%llx", static_cast<unsigned long long>(
                                           report->sites[0].site)),
             report->span_classes.empty() ? "-"
                                          : report->span_classes[0].name.c_str(),
             rollback_ok ? "pass" : "FAIL"});
        std::printf(
            "  rollback: canaries=%d rollbacks=%d slo_vetoes=%d; canary@%zu "
            "rollback@%zu joined=%zu events, cause=%s\n",
            rollback->report.canaries, rollback->report.rollbacks,
            rollback->report.slo_vetoes, canary_epoch, rollback_epoch,
            report->joined.size(), obs::RegressionCauseName(report->cause));
        json.Add("scenario_rollback",
                 {{"canaries", static_cast<double>(rollback->report.canaries)},
                  {"rollbacks", static_cast<double>(rollback->report.rollbacks)},
                  {"cause_control_plane", cause_ok ? 1.0 : 0.0},
                  {"joined_rollback", joined_rollback ? 1.0 : 0.0},
                  {"pass", rollback_ok ? 1.0 : 0.0}});
      }
    }
  }
  gate.Record(rollback_ok);

  // ---------- exemplar gates: exactness + offline-sort equivalence --------
  bool exemplars_ok = drift.ok() && rollback.ok();
  if (exemplars_ok) {
    std::string detail;
    for (const auto* outcome : {&drift.value(), &rollback.value()}) {
      for (size_t s = 0; s < kShards; ++s) {
        // VerifyExactness already gated inside RunPoint; the offline sort is
        // the reservoir-specific claim.
        if (!TopKMatchesOfflineSort(*outcome->deployment.spans(s),
                                    *outcome->deployment.exemplars(s),
                                    &detail)) {
          std::printf("  exemplars: shard %zu FAIL (%s)\n", s, detail.c_str());
          exemplars_ok = false;
        }
      }
    }
    if (exemplars_ok) {
      std::printf("  exemplars: %s; every span sum exact\n", detail.c_str());
    }
  }
  gate.Record(exemplars_ok);
  json.Add("exemplars", {{"pass", exemplars_ok ? 1.0 : 0.0}});

  if (!exemplar_out.empty() && rollback.ok()) {
    std::vector<const obs::ExemplarReservoir*> reservoirs;
    for (size_t s = 0; s < kShards; ++s) {
      reservoirs.push_back(rollback->deployment.exemplars(s));
    }
    const std::string perfetto =
        obs::ToPerfettoExemplarJson(reservoirs, /*cycles_per_ns=*/1.0);
    std::FILE* file = std::fopen(exemplar_out.c_str(), "w");
    if (file != nullptr) {
      std::fwrite(perfetto.data(), 1, perfetto.size(), file);
      std::fclose(file);
      std::printf("  exemplar perfetto: %s\n", exemplar_out.c_str());
    }
  }

  // ---------- the price of watching ---------------------------------------
  // Same point, three builds of the layer; the ratio is over SIMULATED
  // cycles, so the modeled span/SLO/trace/exemplar costs are what is priced.
  const PointSpec price_spec{/*rate=*/0.02, /*duration=*/1'000'000, false,
                             false};
  auto bare = RunPoint(chase, stale, pipeline, price_spec, ObsMode::kNone);
  auto off = RunPoint(chase, stale, pipeline, price_spec, ObsMode::kDisabled);
  auto on = RunPoint(chase, stale, pipeline, price_spec, ObsMode::kEnabled);
  bool overhead_ok = false;
  if (!bare.ok() || !off.ok() || !on.ok()) {
    std::fprintf(stderr, "overhead runs failed\n");
  } else {
    const double enabled_ratio = static_cast<double>(on->total_cycles()) /
                                 static_cast<double>(bare->total_cycles());
    const double disabled_ratio = static_cast<double>(off->total_cycles()) /
                                  static_cast<double>(bare->total_cycles());
    overhead_ok = enabled_ratio <= kEnabledCeiling &&
                  disabled_ratio <= kDisabledCeiling;
    std::printf("\n  overhead: bare=%s cycles, disabled=%.4fx (<= %.2fx), "
                "enabled=%.4fx (<= %.2fx) -> %s\n",
                WithCommas(bare->total_cycles()).c_str(), disabled_ratio,
                kDisabledCeiling, enabled_ratio, kEnabledCeiling,
                overhead_ok ? "pass" : "FAIL");
    json.Add("overhead",
             {{"bare_cycles", static_cast<double>(bare->total_cycles())},
              {"disabled_ratio", disabled_ratio},
              {"enabled_ratio", enabled_ratio},
              {"pass", overhead_ok ? 1.0 : 0.0}});
  }
  gate.Record(overhead_ok);

  // ---------- determinism -------------------------------------------------
  // Rerun the HARD point (guard + fault + rollback) and require the counters,
  // the retained exemplar set, and the rendered diagnosis JSON to come back
  // byte for byte.
  bool deterministic = false;
  if (rollback.ok() && rollback_ok) {
    auto rerun = RunPoint(chase, stale, pipeline, rollback_spec,
                          ObsMode::kEnabled);
    if (rerun.ok()) {
      deterministic = SameOutcome(*rollback, *rerun);
      if (deterministic) {
        auto first = RenderDiagnosis(*rollback, rb_baseline, rb_current);
        auto second = RenderDiagnosis(*rerun, rb_baseline, rb_current);
        deterministic = first.ok() && second.ok() &&
                        first.value() == second.value();
      }
    } else {
      std::fprintf(stderr, "determinism rerun failed: %s\n",
                   rerun.status().ToString().c_str());
    }
  }
  gate.Record(deterministic);
  std::printf("  determinism: rollback-point rerun + diagnosis JSON %s\n",
              deterministic ? "bit-identical (pass)" : "DIVERGED (FAIL)");
  json.Add("gates", {{"drift", drift_ok ? 1.0 : 0.0},
                     {"rollback", rollback_ok ? 1.0 : 0.0},
                     {"exemplars", exemplars_ok ? 1.0 : 0.0},
                     {"overhead", overhead_ok ? 1.0 : 0.0},
                     {"deterministic", deterministic ? 1.0 : 0.0}});

  std::printf(
      "\nReading: the diagnosis layer closes the loop the paper opened —\n"
      "because both taxonomies are exact partitions, a window-over-window\n"
      "diff is a closed accounting statement, and the engine can NAME the\n"
      "drifted site (the B-ring hot load) when the workload moved, or blame\n"
      "the control plane for its own rollback window, with the top-K tail\n"
      "exemplars as per-request evidence. No human eyeballing required.\n");
  json.Flush();
  return gate.Finish();
}
