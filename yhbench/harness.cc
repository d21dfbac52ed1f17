// The repetition loop, the generic layer probes, and the output.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <unordered_map>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "src/adapt/shard.h"
#include "src/common/strings.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/span/span.h"
#include "src/pmu/session.h"
#include "src/profile/collector.h"
#include "yhbench/internal.h"

namespace yhbench {

namespace yh = yieldhide;

namespace {

// Set-ups per invocation, at least; setup_s is their median.
constexpr size_t kMinSetups = 5;
// Repetitions at least (one warm-up plus three timed), whatever --seconds
// says.
constexpr size_t kMinReps = 4;
// Host time each executor / PMU probe runs for.
constexpr double kProbeSeconds = 0.6;
constexpr int kProbeRepeats = 3;

// What one HostReference pass takes on a 4-core Intel Xeon VM (Sapphire
// Rapids-class, GCC 12.2, -O3) at a typical moment: the host speed the
// end-to-end host metrics are scaled to.
constexpr double kReferenceSeconds = 0.045;

volatile uint64_t g_sink = 0;  // keeps probe results observable

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<MetricSpec> BuildPerLayerMetrics() {
  std::vector<MetricSpec> m = {
      {"sim.executor.ns_per_insn", "ns"},
      {"sim.hierarchy.ns_per_access", "ns"},
      {"sim.memory.ns_per_read", "ns"},
      {"sim.hierarchy.l1_frac", "frac"},
      {"sim.hierarchy.l2_frac", "frac"},
      {"sim.hierarchy.l3_frac", "frac"},
      {"sim.hierarchy.dram_frac", "frac"},
      {"sim.hierarchy.inflight_merge_frac", "frac"},
      {"sim.hierarchy.prefetch_useful_frac", "frac"},
      {"sim.hierarchy.prefetch_dropped", "count"},
      {"runtime.host_s", "s"},
      {"runtime.yields", "count"},
      {"runtime.switch_frac", "frac"},
      {"runtime.stall_frac", "frac"},
      {"runtime.dm.bursts", "count"},
      {"runtime.dm.burst_occupancy", "frac"},
      {"runtime.dm.bursts_starved", "count"},
      {"runtime.dm.chains", "count"},
      {"runtime.dm.scavengers_spawned", "count"},
      {"runtime.dm.sites_quarantined", "count"},
      {"serve.poll_us_per_req", "us"},
      {"serve.poll_host_frac", "frac"},
      {"serve.factory_us_per_call", "us"},
      {"serve.shed_frac", "frac"},
      {"serve.scavenger_served_frac", "frac"},
      {"serve.requeued", "count"},
      {"serve.slo_miss_frac", "frac"},
      {"obs.host_overhead_frac", "frac"},
      {"obs.modeled_overhead_frac", "frac"},
      {"obs.trace_events", "count"},
  };
  for (size_t c = 0; c < yh::obs::kNumCycleClasses; ++c) {
    m.push_back({std::string("obs.profiler.") +
                     yh::obs::CycleClassName(static_cast<yh::obs::CycleClass>(c)) +
                     "_frac",
                 "frac"});
  }
  for (size_t c = 0; c < yh::obs::kNumSpanClasses; ++c) {
    m.push_back({std::string("obs.span.") +
                     yh::obs::SpanClassName(static_cast<yh::obs::SpanClass>(c)),
                 "cycles"});
  }
  const std::vector<MetricSpec> tail = {
      {"pmu.ns_per_insn_attached", "ns"},
      {"pmu.samples_accepted", "count"},
      {"pmu.samples_dropped", "count"},
      {"pmu.overhead_frac", "frac"},
      {"profile.collect_ms", "ms"},
      {"core.build_ms", "ms"},
      {"instrument.rebuild_ms", "ms"},
      {"instrument.primary_sites", "count"},
      {"instrument.scavenger_sites", "count"},
      {"workloads.make_ms", "ms"},
      {"workloads.init_memory_ms", "ms"},
      {"adapt.host_ms_per_epoch", "ms"},
      {"adapt.group_epochs", "count"},
      {"adapt.rebuilds", "count"},
      {"adapt.installs", "count"},
      {"adapt.final_drift", "score"},
      {"latency.samples", "count"},
      {"latency.beyond_p99", "count"},
      {"trace.overhead_frac", "frac"},
      {"check.failed_frac", "frac"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // cut at the terminating NUL
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 0;
  }
  return CPU_COUNT(&set);
}

std::string Sanitizers() {
  std::string found;
#if defined(__SANITIZE_ADDRESS__)
  found += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  found += "thread ";
#endif
  if (std::string(YHBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos) {
    found += "flags ";
  }
  return found.empty() ? "none" : found.substr(0, found.size() - 1);
}

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0, resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += yh::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

// ---- host speed reference --------------------------------------------------

// A fixed yardstick for the host's speed, timed after every repetition. On a
// shared host, other tenants slow the engine by up to 2x in spells of
// seconds to minutes; no statistic over one run's repetitions hides a spell
// that covers the whole run. This pass is slowed by the same tenants because
// it does the same kinds of host work as the engine: an ALU and branch loop
// (the executor's decode and dispatch), then a miniature of the memory
// model, three LRU set-associative tag arrays (32 KiB, 1 MiB and 8 MiB
// modelled; 3.4 MiB) and a hash map of 4 KiB pages (4 MiB) walked by a
// dependent pseudo-random address stream. It lives here, so no change to the
// engine moves it.
class HostReference {
 public:
  HostReference() {
    uint64_t x = 1;
    for (uint64_t p = 0; p < kPages; ++p) {
      auto page = std::make_unique<uint64_t[]>(kPageWords);
      for (uint64_t i = 0; i < kPageWords; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        page[i] = x;
      }
      pages_[p] = std::move(page);
    }
  }

  // One pass; returns its host seconds.
  double Run() {
    const double t0 = NowSeconds();
    uint64_t x = 1, y = 2;
    for (uint64_t i = 0; i < 6'000'000; ++i) {
      x = x * 6364136223846793005ull + y;
      y ^= (x >> 17) + ((i & 3) != 0 ? x : y);
      if ((x & 0x100) != 0) {
        y += i;
      }
    }
    uint64_t addr = 0;
    for (uint64_t i = 0; i < 150'000; ++i) {
      const uint64_t line = addr >> 6;
      if (!l1_.Access(line) && !l2_.Access(line)) {
        l3_.Access(line);
      }
      const uint64_t v =
          pages_.find(addr >> 12)->second[(addr >> 3) & (kPageWords - 1)];
      y += v;
      // The step count keeps the walk from settling into a short cycle: it
      // covers every line of the pages.
      addr = ((v ^ (addr * 31)) + i * 0x9E3779B97F4A7C15ull) &
             (kPages * 4096 - 8);
    }
    g_sink = g_sink + x + y;
    return NowSeconds() - t0;
  }

 private:
  static constexpr uint64_t kPages = 1024;
  static constexpr uint64_t kPageWords = 512;

  class TagArray {
   public:
    TagArray(size_t bytes, size_t ways)
        : ways_(ways), sets_(bytes / 64 / ways), lines_(bytes / 64) {}
    // Looks the line up; installs it over the LRU way on a miss.
    bool Access(uint64_t line) {
      Way* set = &lines_[(line & (sets_ - 1)) * ways_];
      Way* victim = set;
      for (size_t i = 0; i < ways_; ++i) {
        if (set[i].valid && set[i].line == line) {
          set[i].stamp = ++clock_;
          return true;
        }
        if (!set[i].valid || set[i].stamp < victim->stamp) {
          victim = &set[i];
        }
      }
      *victim = {line, ++clock_, true};
      return false;
    }

   private:
    struct Way {
      uint64_t line = 0;
      uint64_t stamp = 0;
      bool valid = false;
    };
    size_t ways_, sets_;
    uint64_t clock_ = 0;
    std::vector<Way> lines_;
  };

  TagArray l1_{32 << 10, 8}, l2_{1 << 20, 16}, l3_{8 << 20, 16};
  std::unordered_map<uint64_t, std::unique_ptr<uint64_t[]>> pages_;
};

// ---- generic layer probes (traced run) ------------------------------------

// RunToCompletion of single tasks of the workload's instrumented binary, with
// no listeners and with a low-overhead PMU sampling session attached,
// alternating so both see the same host conditions.
void ExecutorProbe(const Workload& workload, std::map<std::string, double>* out) {
  const yh::core::PipelineConfig& pipeline = workload.pipeline();
  const yh::isa::Program& program = workload.artifacts().binary.program;
  yh::sim::Machine machine(pipeline.machine);
  workload.sim_workload().InitMemory(machine.memory());
  const yh::pmu::SessionConfig session_config =
      yh::profile::MakeSessionConfig(yh::adapt::LowOverheadSamplingConfig());

  std::vector<double> bare, attached;
  uint64_t accepted = 0, dropped = 0, overhead = 0, cycles = 0;
  const double start = NowSeconds();
  for (int task = 0; task < 4 || NowSeconds() - start < kProbeSeconds; ++task) {
    // Alternate which variant runs first: the second run of a task finds
    // the host caches warm.
    for (const bool with_pmu : {task % 2 == 1, task % 2 == 0}) {
      machine.ResetMicroarchState();
      std::unique_ptr<yh::pmu::SamplingSession> session;
      if (with_pmu) {
        session = std::make_unique<yh::pmu::SamplingSession>(session_config);
        session->AttachTo(machine);
      }
      yh::sim::CpuContext ctx;
      ctx.ResetArchState(program.entry());
      workload.sim_workload().SetupFor(task)(ctx);
      yh::sim::Executor executor(&program, &machine);
      const double t0 = NowSeconds();
      auto run = executor.RunToCompletion(ctx, 1'000'000'000ull);
      const double elapsed = NowSeconds() - t0;
      if (!run.ok() || ctx.instructions == 0) {
        continue;
      }
      const double ns = elapsed * 1e9 / static_cast<double>(ctx.instructions);
      if (!with_pmu) {
        bare.push_back(ns);
        continue;
      }
      attached.push_back(ns);
      session->DetachFrom(machine);
      if (task == 0) {
        accepted = session->DrainAllSamples().size();
        for (size_t i = 0; i < session->pebs_count(); ++i) {
          dropped += session->pebs(i).samples_dropped();
        }
        overhead = session->OverheadCycles();
        cycles = *run;
      }
    }
  }
  (*out)["sim.executor.ns_per_insn"] = Median(bare);
  (*out)["pmu.ns_per_insn_attached"] = Median(attached) - Median(bare);
  // Simulated sampling figures for workloads whose repetitions run no PMU.
  out->emplace("pmu.samples_accepted", static_cast<double>(accepted));
  out->emplace("pmu.samples_dropped", static_cast<double>(dropped));
  out->emplace("pmu.overhead_frac",
               cycles == 0 ? 0.0
                           : static_cast<double>(overhead) /
                                 static_cast<double>(cycles));
}

// Replays the recorded load/prefetch stream into a fresh MemoryHierarchy and
// the loads into the workload's SparseMemory image.
void ReplayProbe(const Workload& workload,
                 const std::vector<AccessEvent>& events,
                 std::map<std::string, double>* out) {
  if (events.empty()) {
    return;
  }
  uint64_t loads = 0;
  for (const AccessEvent& e : events) {
    loads += e.prefetch ? 0 : 1;
  }
  std::vector<double> hierarchy_ns, memory_ns;
  yh::sim::SparseMemory memory;
  workload.sim_workload().InitMemory(memory);
  for (int r = 0; r < kProbeRepeats; ++r) {
    yh::sim::MemoryHierarchy hierarchy(workload.pipeline().machine.hierarchy);
    uint64_t sink = 0;
    double t0 = NowSeconds();
    for (const AccessEvent& e : events) {
      if (e.prefetch) {
        sink += hierarchy.Prefetch(e.addr, e.cycle) ? 1 : 0;
      } else {
        sink += hierarchy.AccessLoad(e.addr, e.cycle).latency_cycles;
      }
    }
    hierarchy_ns.push_back((NowSeconds() - t0) * 1e9 /
                           static_cast<double>(events.size()));
    t0 = NowSeconds();
    for (const AccessEvent& e : events) {
      if (!e.prefetch) {
        sink ^= memory.Read64(e.addr);
      }
    }
    if (loads > 0) {
      memory_ns.push_back((NowSeconds() - t0) * 1e9 /
                          static_cast<double>(loads));
    }
    g_sink = g_sink + sink;
  }
  (*out)["sim.hierarchy.ns_per_access"] = Median(hierarchy_ns);
  (*out)["sim.memory.ns_per_read"] = Median(memory_ns);
}

// Step (i) and step (ii) of the pipeline timed apart: CollectProfile over
// the profiled tasks, and InstrumentFromProfile (the online rebuild).
Status PipelineProbe(const Workload& workload,
                     std::map<std::string, double>* out) {
  const yh::core::PipelineConfig& pipeline = workload.pipeline();
  const yh::workloads::SimWorkload& sim_workload = workload.sim_workload();
  yh::sim::Machine machine(pipeline.machine);
  sim_workload.InitMemory(machine.memory());
  std::vector<double> collect_ms, rebuild_ms;
  for (int r = 0; r < kProbeRepeats; ++r) {
    yh::profile::ProfileData merged;
    const double t0 = NowSeconds();
    for (int task = 0; task < pipeline.profile_tasks; ++task) {
      machine.ResetMicroarchState();
      YH_ASSIGN_OR_RETURN(
          yh::profile::CollectResult collected,
          yh::profile::CollectProfile(
              sim_workload.program(), machine,
              sim_workload.SetupFor(pipeline.profile_first_task + task),
              pipeline.collector));
      merged.loads.Merge(collected.profile.loads);
      merged.blocks.Merge(collected.profile.blocks);
    }
    collect_ms.push_back((NowSeconds() - t0) * 1e3);

    const double t1 = NowSeconds();
    YH_ASSIGN_OR_RETURN(
        const yh::core::PipelineArtifacts rebuilt,
        yh::core::InstrumentFromProfile(sim_workload.program(),
                                        workload.artifacts().profile, pipeline));
    rebuild_ms.push_back((NowSeconds() - t1) * 1e3);
    g_sink = g_sink + rebuilt.binary.program.size();
  }
  (*out)["profile.collect_ms"] = Median(collect_ms);
  (*out)["instrument.rebuild_ms"] = Median(rebuild_ms);
  return Status::Ok();
}

// Runs repetitions until `budget_s` is used up (never fewer than `min_reps`),
// stopping early when the next repetition would overrun, and calls
// `between` before each and `reference` after each. With a tracer,
// repetitions alternate untraced / traced so both see the same host
// conditions; `recorder` is attached to the first traced one only.
Status RunReps(Workload& workload, double budget_s, size_t min_reps,
               const std::function<Status()>& between, Tracer* tracer,
               AccessRecorder* recorder, bool plant_corruption,
               HostReference& reference, std::vector<RepResult>* reps,
               std::vector<bool>* traced) {
  const double start = NowSeconds();
  while (true) {
    const size_t done = reps->size();
    const double elapsed = NowSeconds() - start;
    const double per_rep = done == 0 ? 0.0 : elapsed / static_cast<double>(done);
    if (done >= min_reps && elapsed + per_rep > budget_s) {
      break;
    }
    YH_RETURN_IF_ERROR(between());
    const bool trace_this = tracer != nullptr && done % 2 == 1;
    if (trace_this) {
      tracer->ResetTotals();
    }
    YH_ASSIGN_OR_RETURN(
        RepResult rep,
        workload.RunRep(trace_this ? tracer : nullptr,
                        trace_this ? recorder : nullptr, plant_corruption));
    if (trace_this) {
      recorder = nullptr;
    }
    rep.reference_s = reference.Run();
    reps->push_back(std::move(rep));
    traced->push_back(trace_this);
  }
  return Status::Ok();
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Tracer ----------------------------------------------------------------

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

int32_t Tracer::Begin(const char* name, uint64_t id) {
  const int32_t parent = open_.empty() ? kNoParent : open_.back();
  const Span span{name, NowNs(), -1, parent < kNoParent ? kNoParent : parent,
                  id};
  int32_t index;
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(span);
    index = static_cast<int32_t>(spans_.size() - 1);
  } else {
    overflow_.push_back(span);
    ++dropped_;
    index = -2 - static_cast<int32_t>(overflow_.size() - 1);
  }
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  const int64_t now = NowNs();
  open_.pop_back();
  Span span;
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].end_ns = now;
    span = spans_[static_cast<size_t>(index)];
  } else {
    span = overflow_.back();
    overflow_.pop_back();
  }
  Total& total = totals_[span.name];
  ++total.count;
  total.seconds += static_cast<double>(now - span.start_ns) * 1e-9;
}

double Tracer::Seconds(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.seconds;
}

std::string Tracer::ToJson(const std::string& host) const {
  std::string out = "{\"host\": \"" + JsonEscape(host) + "\", \"dropped\": " +
                    std::to_string(dropped_) + ", \"spans\": [\n";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += yh::StrFormat(
        "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d",
        s.name, static_cast<long long>(s.start_ns - origin),
        static_cast<long long>(s.end_ns < 0 ? -1 : s.end_ns - origin), s.parent);
    if (s.id != kNoId) {
      out += yh::StrFormat(", \"id\": %llu", static_cast<unsigned long long>(s.id));
    }
    out += i + 1 < spans_.size() ? "},\n" : "}\n";
  }
  out += "]}\n";
  return out;
}

// ---- shared helpers --------------------------------------------------------

yh::core::PipelineConfig BenchPipeline() {
  yh::core::PipelineConfig config;
  config.machine = yh::sim::MachineConfig::SkylakeLike();
  config.profile_tasks = 4;
  config.collector.l2_miss_period = 29;
  config.collector.stall_cycles_period = 199;
  config.collector.retired_period = 61;
  config.Finalize();
  return config;
}

uint64_t Quantile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

uint64_t CheckResults(const yh::workloads::SimWorkload& workload,
                      const yh::sim::SparseMemory& memory,
                      const std::vector<int>& tasks,
                      std::vector<std::string>* failures) {
  uint64_t bad = 0;
  for (const int task : tasks) {
    const uint64_t got = workload.ReadResult(memory, task);
    const uint64_t want = workload.ExpectedResult(task);
    if (got != want) {
      if (++bad <= 3) {
        failures->push_back(yh::StrFormat(
            "task %d checksum %llu != expected %llu", task,
            static_cast<unsigned long long>(got),
            static_cast<unsigned long long>(want)));
      }
    }
  }
  return bad;
}

void AddStats(yh::sim::MemoryHierarchy::Stats* sum,
              const yh::sim::MemoryHierarchy::Stats& s) {
  sum->loads += s.loads;
  sum->l1_hits += s.l1_hits;
  sum->l2_hits += s.l2_hits;
  sum->l3_hits += s.l3_hits;
  sum->dram_accesses += s.dram_accesses;
  sum->inflight_merges += s.inflight_merges;
  sum->prefetches_issued += s.prefetches_issued;
  sum->prefetches_useless += s.prefetches_useless;
  sum->prefetches_dropped += s.prefetches_dropped;
}

void AddHierarchyMetrics(const yh::sim::MemoryHierarchy::Stats& s,
                         std::map<std::string, double>* sim) {
  const auto frac = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  (*sim)["sim.hierarchy.l1_frac"] = frac(s.l1_hits, s.loads);
  (*sim)["sim.hierarchy.l2_frac"] = frac(s.l2_hits, s.loads);
  (*sim)["sim.hierarchy.l3_frac"] = frac(s.l3_hits, s.loads);
  (*sim)["sim.hierarchy.dram_frac"] = frac(s.dram_accesses, s.loads);
  (*sim)["sim.hierarchy.inflight_merge_frac"] = frac(s.inflight_merges, s.loads);
  const uint64_t attempts =
      s.prefetches_issued + s.prefetches_useless + s.prefetches_dropped;
  (*sim)["sim.hierarchy.prefetch_useful_frac"] =
      frac(s.prefetches_issued, attempts);
  (*sim)["sim.hierarchy.prefetch_dropped"] =
      static_cast<double>(s.prefetches_dropped);
}

// ---- public API ------------------------------------------------------------

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"ops_per_s", "1/s"},          {"sim_minsn_per_s", "Minsn/s"},
      {"setup_s", "s"},              {"peak_rss_mb", "MB"},
      {"sim_cycles_per_op", "cycles"}, {"cpu_efficiency", "frac"},
      {"p50_kcycles", "kcycles"},    {"p99_kcycles", "kcycles"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = BuildPerLayerMetrics();
  return metrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"chase_rr", "serve_obs",
                                                 "adapt_drift"};
  return names;
}

std::string HostStamp() {
  return yh::StrFormat(
      "nproc=%d cpu=\"%s\" compiler=\"%s\" build=%s flags=\"%s\" "
      "sanitizers=%s",
      Nproc(), CpuModel().c_str(), YHBENCH_COMPILER, YHBENCH_BUILD_TYPE,
      std::string(yh::TrimString(YHBENCH_CXX_FLAGS)).c_str(),
      Sanitizers().c_str());
}

Status CheckBuild() {
#if !defined(__OPTIMIZE__)
  return yh::FailedPreconditionError(
      "refusing to time an unoptimized build (build type " YHBENCH_BUILD_TYPE
      "); configure with -DCMAKE_BUILD_TYPE=Release");
#endif
  if (Sanitizers() != "none") {
    return yh::FailedPreconditionError(
        "refusing to time a sanitized build (" + Sanitizers() + ")");
  }
  return Status::Ok();
}

Result<Outcome> Run(const Options& options) {
  YH_RETURN_IF_ERROR(CheckBuild());
  if (MakeWorkload(options.workload, options.seed, options.small) == nullptr) {
    return yh::InvalidArgumentError("unknown workload '" + options.workload + "'");
  }

  // The reference's memory stays resident for the whole run; it is
  // allocated first so peak_rss_mb can leave it out.
  const double rss_before_reference = ResidentMb();
  HostReference reference;
  const double reference_mb = ResidentMb() - rss_before_reference;

  // Set-up runs once before the measured phase (that workload is the one
  // measured) and again before every repetition, so setup_s, the median,
  // samples the same host conditions as the repetitions do.
  std::vector<double> setup_s, make_ms, init_ms, build_ms;
  const auto set_up = [&]() -> Result<std::unique_ptr<Workload>> {
    std::unique_ptr<Workload> w =
        MakeWorkload(options.workload, options.seed, options.small);
    SetupTimes times;
    const double t0 = NowSeconds();
    YH_RETURN_IF_ERROR(w->Setup(&times));
    setup_s.push_back(NowSeconds() - t0);
    make_ms.push_back(times.make_s * 1e3);
    init_ms.push_back(times.init_memory_s * 1e3);
    build_ms.push_back(times.build_s * 1e3);
    return w;
  };
  YH_ASSIGN_OR_RETURN(std::unique_ptr<Workload> workload, set_up());
  const auto between = [&]() -> Status {
    return options.small ? Status::Ok() : set_up().status();
  };

  // Measured phase. Repetition 0 warms the host (allocator, page tables) and
  // is checked but left out of the host figures. The traced run alternates
  // traced and untraced repetitions, so it can report its own overhead.
  std::vector<RepResult> reps;
  std::vector<bool> traced;
  Tracer tracer;
  AccessRecorder recorder;
  const size_t min_reps = options.small ? 3 : kMinReps;
  YH_RETURN_IF_ERROR(RunReps(*workload, options.seconds, min_reps, between,
                             options.trace ? &tracer : nullptr, &recorder,
                             options.plant_corruption, reference, &reps,
                             &traced));
  while (!options.small && setup_s.size() < kMinSetups) {
    YH_RETURN_IF_ERROR(between());
  }

  Outcome outcome;
  const RepResult& first = reps.front();
  for (size_t r = 0; r < reps.size(); ++r) {
    const RepResult& rep = reps[r];
    outcome.attempted += rep.attempted;
    outcome.failed += rep.failed;
    for (const std::string& f : rep.failures) {
      outcome.notes.push_back(yh::StrFormat("rep %zu: %s", r, f.c_str()));
    }
    if (rep.sim != first.sim || rep.latencies != first.latencies) {
      // A host-only difference between repetitions changed a simulated
      // result: none of this repetition's outputs can be trusted.
      outcome.failed += rep.attempted - std::min(rep.attempted, rep.failed);
      outcome.notes.push_back(yh::StrFormat(
          "rep %zu: simulated metrics differ from rep 0", r));
    }
  }
  outcome.correct = outcome.failed == 0 && outcome.attempted > 0;

  std::map<std::string, double> values = first.sim;
  const uint64_t samples = first.latencies.size();
  const uint64_t p99 = Quantile(first.latencies, 0.99);
  const uint64_t beyond_p99 = static_cast<uint64_t>(std::count_if(
      first.latencies.begin(), first.latencies.end(),
      [p99](uint64_t v) { return v > p99; }));
  values["p50_kcycles"] = static_cast<double>(Quantile(first.latencies, 0.50)) / 1e3;
  values["p99_kcycles"] = static_cast<double>(p99) / 1e3;
  std::string rep_times;
  for (const RepResult& rep : reps) {
    rep_times += yh::StrFormat(" %.4f/%.4f", rep.host_s, rep.reference_s);
  }
  outcome.notes.push_back(yh::StrFormat(
      "reps=%zu latency samples=%llu (beyond p99: %llu) failed_frac=%.6g "
      "rep host_s/reference_s:%s",
      reps.size(), static_cast<unsigned long long>(samples),
      static_cast<unsigned long long>(beyond_p99), outcome.failed_frac(),
      rep_times.c_str()));

  const std::vector<MetricSpec>* specs = &EndToEndMetrics();
  if (!options.trace) {
    // Host times are scaled to the reference host speed: each timed
    // repetition in units of the reference pass right after it, the median
    // of those, times kReferenceSeconds; set-up by the run's median pass.
    // Between the 30 s windows of 4-minute runs, the median repetition
    // spread (interquartile range over median) by 7-9%, the median scaled
    // one by 3%; between 30 s runs minutes apart, the median repetition
    // moved by up to 1.9x.
    std::vector<double> scaled_s, reference_s;
    for (size_t r = reps.size() > 1 ? 1 : 0; r < reps.size(); ++r) {
      scaled_s.push_back(reps[r].host_s / reps[r].reference_s);
      reference_s.push_back(reps[r].reference_s);
    }
    const double rep_s = Median(scaled_s) * kReferenceSeconds;
    const double host_speed = kReferenceSeconds / Median(reference_s);
    outcome.notes.push_back(yh::StrFormat(
        "host speed %.3f of the reference host (median reference pass %.4f s)",
        host_speed, Median(reference_s)));
    values["ops_per_s"] = static_cast<double>(first.ops) / rep_s;
    values["sim_minsn_per_s"] =
        static_cast<double>(first.sim_insns) / rep_s / 1e6;
    values["setup_s"] = Median(setup_s) * host_speed;
    values["peak_rss_mb"] = PeakRssMb() - reference_mb;
  } else {
    specs = &PerLayerMetrics();
    std::vector<double> untraced_s, traced_s;
    std::map<std::string, std::vector<double>> host;
    for (size_t r = 1; r < reps.size(); ++r) {
      (traced[r] ? traced_s : untraced_s).push_back(reps[r].host_s);
      for (const auto& [name, v] : reps[r].host) {
        host[name].push_back(v);
      }
    }
    for (const auto& [name, v] : host) {
      values[name] = Median(v);
    }
    values["trace.overhead_frac"] = Median(traced_s) / Median(untraced_s) - 1.0;
    values["core.build_ms"] = Median(build_ms);
    values["workloads.make_ms"] = Median(make_ms);
    values["workloads.init_memory_ms"] = Median(init_ms);
    values["latency.samples"] = static_cast<double>(samples);
    values["latency.beyond_p99"] = static_cast<double>(beyond_p99);
    values["check.failed_frac"] = outcome.failed_frac();
    ExecutorProbe(*workload, &values);
    ReplayProbe(*workload, recorder.events(), &values);
    YH_RETURN_IF_ERROR(PipelineProbe(*workload, &values));
    YH_RETURN_IF_ERROR(workload->ExtraProbes(&values));
    if (!options.spans_path.empty()) {
      std::FILE* file = std::fopen(options.spans_path.c_str(), "w");
      const std::string json = tracer.ToJson(HostStamp());
      if (file == nullptr ||
          std::fwrite(json.data(), 1, json.size(), file) != json.size()) {
        outcome.notes.push_back("cannot write spans to " + options.spans_path);
      }
      if (file != nullptr) {
        std::fclose(file);
      }
    }
  }

  for (const MetricSpec& spec : *specs) {
    const auto it = values.find(spec.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      outcome.notes.push_back("metric " + spec.name + " is not finite");
      outcome.correct = false;
      v = 0.0;
    }
    outcome.metrics.emplace_back(spec, v);
  }
  return outcome;
}

std::string ToResultJson(const Outcome& outcome) {
  std::string out = yh::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& [spec, value] = outcome.metrics[i];
    out += yh::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         i == 0 ? "" : ", ", spec.name.c_str(), value,
                         spec.unit.c_str());
  }
  out += "}}";
  return out;
}

}  // namespace yhbench
