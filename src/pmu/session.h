// SamplingSession: the "perf record" of the simulated plane. Owns a set of
// PEBS samplers plus an LBR recorder, attaches them to a Machine's event
// stream, and accounts for the run-time overhead sampling would impose
// (sample-capture microcode plus periodic buffer drains), so experiment C10
// can report profile quality against profiling cost.
#ifndef YIELDHIDE_SRC_PMU_SESSION_H_
#define YIELDHIDE_SRC_PMU_SESSION_H_

#include <memory>
#include <vector>

#include "src/obs/trace.h"
#include "src/pmu/lbr.h"
#include "src/pmu/pebs.h"
#include "src/sim/machine.h"

namespace yieldhide::pmu {

struct SessionConfig {
  std::vector<PebsConfig> pebs;
  LbrConfig lbr;
  bool enable_lbr = true;
};

class SamplingSession {
 public:
  explicit SamplingSession(const SessionConfig& config);

  // Registers all samplers with the machine's listener fan-out. The session
  // must outlive the machine run.
  void AttachTo(sim::Machine& machine);

  // Unregisters all samplers previously attached to `machine`. Safe to call
  // when not attached. Used by the online adaptation loop, which samples only
  // during serving epochs.
  void DetachFrom(sim::Machine& machine);

  PebsSampler& pebs(size_t index) { return *pebs_[index]; }
  size_t pebs_count() const { return pebs_.size(); }
  LbrRecorder* lbr() { return lbr_.get(); }

  // Attaches a flight recorder (may be null). Each drained sample becomes a
  // kPmuSample trace event (kTracePmu category, off in the default runtime
  // mask because it fires at sample rate).
  void SetTrace(obs::TraceRecorder* trace) { trace_ = trace; }

  // Drains every sampler into one combined sample vector.
  std::vector<PebsSample> DrainAllSamples();
  std::vector<LbrSnapshot> DrainLbrSnapshots();

  // Total modeled profiling overhead so far, in cycles, and as a fraction of
  // `run_cycles`.
  uint64_t OverheadCycles() const;
  double OverheadFraction(uint64_t run_cycles) const;

 private:
  SessionConfig config_;
  std::vector<std::unique_ptr<PebsSampler>> pebs_;
  std::unique_ptr<LbrRecorder> lbr_;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace yieldhide::pmu

#endif  // YIELDHIDE_SRC_PMU_SESSION_H_
