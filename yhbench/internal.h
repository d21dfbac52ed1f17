// Internals shared by harness.cc (the repetition loop, the generic layer
// probes, the output) and workloads.cc (the three workloads).
#ifndef YHBENCH_INTERNAL_H_
#define YHBENCH_INTERNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/sim/events.h"
#include "src/workloads/workload.h"
#include "yhbench/yhbench.h"

namespace yhbench {

double NowSeconds();

// Spans recorded around calls into each layer, kept in memory and written
// out when the traced run ends: name, start, end, parent, and the request id
// where one call serves one request. A span's parent is the innermost span
// open when it begins.
class Tracer {
 public:
  static constexpr uint64_t kNoId = ~0ull;
  static constexpr int32_t kNoParent = -1;

  int32_t Begin(const char* name, uint64_t id = kNoId);
  void End(int32_t span);

  // Durations summed by span name since the last ResetTotals().
  struct Total {
    uint64_t count = 0;
    double seconds = 0.0;
  };
  const std::map<std::string, Total>& totals() const { return totals_; }
  double Seconds(const std::string& name) const;
  void ResetTotals() { totals_.clear(); }

  std::string ToJson(const std::string& host) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;  // -1 while open
    int32_t parent;
    uint64_t id;
  };
  // Past this many stored spans, spans still count towards totals_ but are
  // not kept; the JSON reports how many were dropped.
  static constexpr size_t kMaxSpans = 1 << 17;

  std::vector<Span> spans_;
  // Open spans, innermost last; entries past the cap live only here.
  std::vector<int32_t> open_;
  std::vector<Span> overflow_;
  std::map<std::string, Total> totals_;
  uint64_t dropped_ = 0;
};

// RAII span; a null tracer makes it a no-op, so traced and untraced runs
// execute the same code apart from the recording.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t id = Tracer::kNoId)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, id) : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

// What one measured repetition produced. Caches start empty in every
// repetition: each builds fresh machines before its measured phase.
struct RepResult {
  double host_s = 0.0;  // the measured phase only
  double reference_s = 0.0;  // the host speed reference pass right after it
  uint64_t ops = 0;     // chase steps or completed requests
  uint64_t sim_insns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  // Every simulated metric (end-to-end and per-layer) by name; compared bit
  // for bit across repetitions.
  std::map<std::string, double> sim;
  // Host per-layer metrics read off the spans (traced repetitions only).
  std::map<std::string, double> host;
  // Exact per-op latencies in cycles (not a histogram bucket bound).
  std::vector<uint64_t> latencies;
};

// A load or prefetch seen on the first machine of a traced repetition; the
// hierarchy and memory probes replay the stream.
struct AccessEvent {
  uint64_t addr;
  uint64_t cycle;
  bool prefetch;
};

// Records the access stream from a machine's listener fan-out.
class AccessRecorder : public yieldhide::sim::EventListener {
 public:
  static constexpr size_t kMaxEvents = 1 << 20;

  void OnLoad(int ctx_id, yieldhide::isa::Addr ip, uint64_t vaddr,
              yieldhide::sim::HitLevel level, bool hit_inflight,
              uint32_t stall_cycles, uint64_t cycle) override {
    if (events_.size() < kMaxEvents) {
      events_.push_back({vaddr, cycle, false});
    }
  }
  void OnPrefetch(int ctx_id, yieldhide::isa::Addr ip, uint64_t vaddr,
                  uint64_t cycle) override {
    if (events_.size() < kMaxEvents) {
      events_.push_back({vaddr, cycle, true});
    }
  }
  std::vector<AccessEvent>& events() { return events_; }

 private:
  std::vector<AccessEvent> events_;
};

struct SetupTimes {
  double make_s = 0.0;         // generate the workload
  double init_memory_s = 0.0;  // write its data image into a fresh machine
  double build_s = 0.0;        // BuildInstrumentedForWorkload
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs from the seed and builds the instrumented binary.
  virtual Status Setup(SetupTimes* times) = 0;
  // One measured repetition from empty caches. `tracer` is null in
  // untraced repetitions; `recorder`, when non-null, is attached to the
  // first machine for the measured phase.
  virtual Result<RepResult> RunRep(Tracer* tracer, AccessRecorder* recorder,
                                   bool plant_corruption) = 0;
  // Probes only this workload has (serve_obs: the observers on/off A/B).
  virtual Status ExtraProbes(std::map<std::string, double>* out) {
    return Status::Ok();
  }

  // What the generic probes run: the workload's program, data image, and
  // the binary its primary tasks run.
  virtual const yieldhide::workloads::SimWorkload& sim_workload() const = 0;
  virtual const yieldhide::core::PipelineArtifacts& artifacts() const = 0;
  virtual const yieldhide::core::PipelineConfig& pipeline() const = 0;
};

// The named workload, unset up; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool small);

// The Skylake-like machine and the sampling periods every workload builds
// its instrumented binary with (the repository's bench configuration).
yieldhide::core::PipelineConfig BenchPipeline();

// Exact nearest-rank quantile of `sorted` (ascending); 0 when empty.
uint64_t Quantile(const std::vector<uint64_t>& sorted, double q);

// Counts the tasks whose result slot differs from the workload's
// host-computed expected value, naming the first few in `failures`.
uint64_t CheckResults(const yieldhide::workloads::SimWorkload& workload,
                      const yieldhide::sim::SparseMemory& memory,
                      const std::vector<int>& tasks,
                      std::vector<std::string>* failures);

// Fills the sim.hierarchy.* fractions from summed hierarchy statistics.
void AddHierarchyMetrics(const yieldhide::sim::MemoryHierarchy::Stats& stats,
                         std::map<std::string, double>* sim);
void AddStats(yieldhide::sim::MemoryHierarchy::Stats* sum,
              const yieldhide::sim::MemoryHierarchy::Stats& stats);

}  // namespace yhbench

#endif  // YHBENCH_INTERNAL_H_
