// Shared helpers for the experiment harnesses in bench/: consistent table
// rendering plus canonical workload/machine constructions so every experiment
// runs against the same Skylake-like configuration unless it says otherwise.
#ifndef YIELDHIDE_BENCH_BENCH_UTIL_H_
#define YIELDHIDE_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "src/adapt/server_group.h"
#include "src/adapt/shard.h"
#include "src/common/strings.h"
#include "src/core/pipeline.h"
#include "src/instrument/scavenger_pass.h"
#include "src/isa/builder.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/runtime/round_robin.h"
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

// Runs `binary` with `group` coroutines of `workload` round-robin on a fresh
// machine; returns the report (results validated by the test suite, not
// re-checked here).
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
  if (!report.ok()) {
    std::fprintf(stderr, "round-robin run failed: %s\n",
                 report.status().ToString().c_str());
    return runtime::RunReport{};
  }
  return report.value();
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

// The compute-heavy scavenger kernel of A1, A2, C5, R1 and R2: an ALU loop
// (40 x {addi, xor}, r2 iterations), scavenger-instrumented at 300 cycles.
inline instrument::InstrumentedProgram MakeScavengedBatch(
    const sim::MachineConfig& machine) {
  isa::ProgramBuilder builder("alu_batch");
  auto loop = builder.Here("loop");
  for (int i = 0; i < 40; ++i) {
    builder.Addi(3, 3, 1);
    builder.Xor(4, 4, 3);
  }
  builder.Addi(2, 2, -1);
  builder.Bne(2, 0, loop);
  builder.Halt();
  instrument::InstrumentedProgram input;
  input.program = std::move(builder).Build().value();
  instrument::ScavengerConfig config;
  config.target_interval_cycles = 300;
  config.machine_cost = machine.cost;
  config.cost_model = instrument::YieldCostModel::FromMachine(machine.cost);
  return instrument::RunScavengerPass(input, nullptr, config).value().instrumented;
}

// An endless supply of MakeScavengedBatch coroutines, 1M iterations each.
inline runtime::DualModeScheduler::ScavengerFactory BatchFactory() {
  return []() -> std::optional<runtime::DualModeScheduler::ContextSetup> {
    return [](sim::CpuContext& ctx) { ctx.regs[2] = 1'000'000; };
  };
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

// Correct results of a group run in which shard s served task indices
// [s * tasks_per_shard, (s + 1) * tasks_per_shard) on machines[s].
inline int CountCorrect(const workloads::PhasedChase& chase,
                        const std::vector<std::unique_ptr<sim::Machine>>& machines,
                        int tasks_per_shard) {
  int correct = 0;
  for (size_t s = 0; s < machines.size(); ++s) {
    for (int i = 0; i < tasks_per_shard; ++i) {
      const int index = static_cast<int>(s) * tasks_per_shard + i;
      if (chase.ReadResult(machines[s]->memory(), index) ==
          chase.ExpectedResult(index)) {
        ++correct;
      }
    }
  }
  return correct;
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
