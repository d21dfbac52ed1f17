// Shared helpers for the experiment harnesses in bench/: consistent table
// rendering plus canonical workload/machine constructions so every experiment
// runs against the same Skylake-like configuration unless it says otherwise.
#ifndef YIELDHIDE_BENCH_BENCH_UTIL_H_
#define YIELDHIDE_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "src/adapt/server_group.h"
#include "src/adapt/shard.h"
#include "src/common/strings.h"
#include "src/core/pipeline.h"
#include "src/isa/builder.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/runtime/round_robin.h"
#include "src/serve/deployment.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {

// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int col_width = 14)
      : headers_(std::move(headers)), col_width_(col_width) {}

  void PrintHeader() const {
    for (const std::string& h : headers_) {
      std::printf("%-*s", col_width_, h.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%-*s", col_width_, std::string(col_width_ - 2, '-').c_str());
    }
    std::printf("\n");
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    for (const std::string& cell : cells) {
      std::printf("%-*s", col_width_, cell.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int col_width_;
};

inline std::string Fmt(const char* fmt, double v) { return StrFormat(fmt, v); }
inline std::string FmtU(uint64_t v) { return WithCommas(v); }

inline void Banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

// The verdicts of a gate bench. Each gate is recorded once; Finish() ends
// the bench with "<id>: GATE VIOLATED" and exit status 1 when any gate
// failed, or "<id>: all gates pass" and 0.
class Gates {
 public:
  explicit Gates(const char* id) : id_(id) {}

  // Records one gate and returns its verdict, "pass" or "FAIL", for the line
  // or table row the bench prints it on.
  const char* Record(bool pass) {
    all_pass_ = all_pass_ && pass;
    return pass ? "pass" : "FAIL";
  }
  // Records one gate and prints it as "  gate <what> pass|FAIL".
  void operator()(bool pass, const char* what) {
    std::printf("  gate %-52s %s\n", what, Record(pass));
  }
  bool all_pass() const { return all_pass_; }

  int Finish() const {
    std::printf("\n%s: %s\n", id_,
                all_pass_ ? "all gates pass" : "GATE VIOLATED");
    return all_pass_ ? 0 : 1;
  }

 private:
  const char* id_;
  bool all_pass_ = true;
};

// Exits the bench with status 1 unless `run` succeeded and each task in
// [first_task, first_task + tasks) left its ExpectedResult in its result slot
// on `memory`. The message names the workload and the failing task.
template <typename T>
void CheckResults(const Result<T>& run, const workloads::SimWorkload& workload,
                  const sim::SparseMemory& memory, int tasks,
                  int first_task = 0) {
  const char* name = workload.program().name().c_str();
  if (!run.ok()) {
    std::fprintf(stderr, "%s: run of tasks %d..%d failed: %s\n", name,
                 first_task, first_task + tasks - 1,
                 run.status().ToString().c_str());
    std::exit(1);
  }
  for (int task = first_task; task < first_task + tasks; ++task) {
    const uint64_t got = workload.ReadResult(memory, task);
    const uint64_t want = workload.ExpectedResult(task);
    if (got != want) {
      std::fprintf(stderr, "%s: task %d returned %llu, expected %llu\n", name,
                   task, static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(want));
      std::exit(1);
    }
  }
}

// Runs `binary` with `group` coroutines of `workload` round-robin on a fresh
// machine and returns the report; CheckResults checks every task's result.
inline runtime::RunReport RunRoundRobin(const workloads::SimWorkload& workload,
                                        const instrument::InstrumentedProgram& binary,
                                        const sim::MachineConfig& machine_config,
                                        int group, int first_task = 0) {
  sim::Machine machine(machine_config);
  workload.InitMemory(machine.memory());
  runtime::RoundRobinScheduler sched(&binary, &machine);
  for (int i = 0; i < group; ++i) {
    sched.AddCoroutine(workload.SetupFor(first_task + i));
  }
  auto report = sched.Run(2'000'000'000ull);
  CheckResults(report, workload, machine.memory(), group, first_task);
  return report.value();
}

// Whether two runs of one serving deployment reproduced each other on shard
// `s` bit for bit: span class totals and completions, profiler class totals,
// SLO counters, the front end's ledger and latency quantiles, and the clock.
inline bool SameShardOutcome(const serve::Deployment& a,
                             const serve::Deployment& b, size_t s) {
  uint64_t ta[obs::kNumSpanClasses], tb[obs::kNumSpanClasses];
  a.spans(s)->AggregateTotals(ta, true);
  b.spans(s)->AggregateTotals(tb, true);
  const serve::FrontEndReport fa = a.front_end(s).report();
  const serve::FrontEndReport fb = b.front_end(s).report();
  return std::equal(ta, ta + obs::kNumSpanClasses, tb) &&
         a.spans(s)->completed_count() == b.spans(s)->completed_count() &&
         a.profiler(s)->class_totals() == b.profiler(s)->class_totals() &&
         a.slo(s)->total() == b.slo(s)->total() &&
         a.slo(s)->bad() == b.slo(s)->bad() &&
         a.slo(s)->alerts_fired() == b.slo(s)->alerts_fired() &&
         fa.counters.offered == fb.counters.offered &&
         fa.counters.shed == fb.counters.shed &&
         fa.counters.completed == fb.counters.completed &&
         fa.latency.P50() == fb.latency.P50() &&
         fa.latency.P99() == fb.latency.P99() &&
         fa.latency.ValueAtQuantile(0.999) ==
             fb.latency.ValueAtQuantile(0.999) &&
         a.machine(s).now() == b.machine(s).now();
}

// Machine-readable results. Construct from argv (recognizes "--json <path>"
// anywhere on the command line), Add() one row of metrics per table row, and
// Flush() before exit. With no --json flag everything is a no-op, so benches
// can call unconditionally. Output shape:
//   {"bench": "<id>", "rows": [{"name": "...", "<metric>": <value>, ...}]}
class JsonWriter {
 public:
  JsonWriter(const std::string& bench_id, int argc, char** argv)
      : bench_id_(bench_id) {
    for (int i = 0; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        path_ = argv[i + 1];
      }
    }
  }

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& row_name,
           const std::vector<std::pair<std::string, double>>& metrics) {
    if (!enabled()) {
      return;
    }
    std::string row = "    {\"name\": \"" + row_name + "\"";
    for (const auto& [key, value] : metrics) {
      row += StrFormat(", \"%s\": %.6g", key.c_str(), value);
    }
    row += "}";
    rows_.push_back(std::move(row));
  }

  // Returns false (and prints to stderr) if the file cannot be written.
  bool Flush() const {
    if (!enabled()) {
      return true;
    }
    std::string out = "{\n  \"bench\": \"" + bench_id_ + "\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += rows_[i] + (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out += "  ]\n}\n";
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
    std::fclose(file);
    std::printf("json results: %s\n", path_.c_str());
    return ok;
  }

 private:
  std::string bench_id_;
  std::string path_;
  std::vector<std::string> rows_;
};

// A scratch file path private to this process, under the system temp
// directory, so two runs of one bench never share the file. Any file at the
// path is removed on construction and on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("yieldhide-" + std::to_string(::getpid()) + "-" + name))
                  .string()) {
    Remove();
  }
  ~TempPath() { Remove(); }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& str() const { return path_; }

 private:
  void Remove() const {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  std::string path_;
};

// The canonical pipeline configuration for benches: Skylake-like machine,
// production-ish sampling periods.
inline core::PipelineConfig BenchPipeline() {
  core::PipelineConfig config;
  config.machine = sim::MachineConfig::SkylakeLike();
  config.profile_tasks = 4;
  config.collector.l2_miss_period = 29;
  config.collector.stall_cycles_period = 199;
  config.collector.retired_period = 61;
  config.Finalize();
  return config;
}

// The ALU scavenger kernel of A1, A2, C5, R1 and R2 and its endless supply.
using core::BatchFactory;
using core::MakeScavengedBatch;

// Closed-loop traffic of A1, A2 and R2: `tasks_per_shard` requests per shard
// from `first_task` on, beside the MakeScavengedBatch job `batch`.
inline serve::ClosedLoopSource BatchLoop(
    const instrument::InstrumentedProgram& batch, int tasks_per_shard,
    int first_task = 0) {
  serve::ClosedLoopSource loop;
  loop.tasks_per_shard = tasks_per_shard;
  loop.first_task = first_task;
  loop.batch = &batch;
  loop.batch_factory = BatchFactory();
  return loop;
}

// The serving shard of A1, A2, O1–O4, Q1 and R2: rebuilds through `pipeline`,
// epochs of `tasks_per_epoch` tasks, at most 4 scavengers, a 300-cycle hide
// window.
inline adapt::AdaptiveServerConfig ShardConfig(
    const core::PipelineConfig& pipeline, int tasks_per_epoch) {
  adapt::AdaptiveServerConfig config;
  config.controller.pipeline = pipeline;
  config.tasks_per_epoch = tasks_per_epoch;
  config.dual.max_scavengers = 4;
  config.dual.hide_window_cycles = 300;
  return config;
}

// Uninstrumented original, primary alone, over tasks [0, tasks): the
// efficiency floor every A2/R2 recovery fraction is measured from.
inline Result<double> BaselineEfficiency(const workloads::PhasedChase& chase,
                                         const sim::MachineConfig& machine_config,
                                         int tasks) {
  sim::Machine machine(machine_config);
  chase.InitMemory(machine.memory());
  const auto binary =
      runtime::AnnotateManualYields(chase.program(), machine_config.cost);
  runtime::DualModeConfig dm;
  dm.hide_window_cycles = 300;
  runtime::DualModeScheduler sched(&binary, &binary, &machine, dm);
  for (int i = 0; i < tasks; ++i) {
    sched.AddPrimaryTask(chase.SetupFor(i));
  }
  YH_ASSIGN_OR_RETURN(const runtime::DualModeReport report, sched.Run());
  return report.CpuEfficiency();
}

// Swaps that landed in a group epoch another shard had already swapped in;
// the stagger policy allows none.
inline size_t OverlappingSwapEpochs(const adapt::GroupReport& report) {
  std::set<size_t> seen;
  size_t overlaps = 0;
  for (const auto& [epoch, shard] : report.swap_log) {
    if (!seen.insert(epoch).second) {
      ++overlaps;
    }
  }
  return overlaps;
}

// Issue-weighted mean efficiency of the epochs after the last swap (all
// epochs when the run never swapped).
inline double SteadyStateEfficiency(const adapt::AdaptReport& report) {
  size_t first = 0;
  for (size_t i = 0; i < report.epochs.size(); ++i) {
    if (report.epochs[i].swapped) {
      first = i + 1;
    }
  }
  if (first >= report.epochs.size()) {
    first = report.epochs.empty() ? 0 : report.epochs.size() - 1;
  }
  double cycles = 0.0, issue = 0.0;
  for (size_t i = first; i < report.epochs.size(); ++i) {
    cycles += static_cast<double>(report.epochs[i].cycles);
    issue += report.epochs[i].efficiency *
             static_cast<double>(report.epochs[i].cycles);
  }
  return cycles > 0.0 ? issue / cycles : 0.0;
}

}  // namespace yieldhide::bench

#endif  // YIELDHIDE_BENCH_BENCH_UTIL_H_
